package core

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"

	"selfishnet/internal/bitset"
)

// Strategy is the set of peers a single peer maintains directed links to.
// It is a bitset over peer indices.
type Strategy = bitset.Set

// Profile is a full strategy combination s = (s_0, ..., s_{n-1}). The
// induced topology G[s] has an arc i→j with weight d(i,j) whenever
// j ∈ s_i.
type Profile struct {
	strategies []Strategy
}

// NewProfile returns a profile of n empty strategies (no links).
func NewProfile(n int) Profile {
	return Profile{strategies: make([]Strategy, n)}
}

// ProfileFromLinks builds a profile from explicit adjacency lists:
// links[i] lists the peers i points to. Self-links and out-of-range
// indices are rejected.
func ProfileFromLinks(n int, links map[int][]int) (Profile, error) {
	p := NewProfile(n)
	for from, tos := range links {
		if from < 0 || from >= n {
			return Profile{}, fmt.Errorf("core: link source %d out of range [0,%d)", from, n)
		}
		for _, to := range tos {
			if err := p.AddLink(from, to); err != nil {
				return Profile{}, err
			}
		}
	}
	return p, nil
}

// N returns the number of peers.
func (p Profile) N() int { return len(p.strategies) }

// Strategy returns peer i's strategy. The returned set shares storage
// with the profile; use Clone before mutating it independently.
func (p Profile) Strategy(i int) Strategy { return p.strategies[i] }

// SetStrategy replaces peer i's strategy. The profile keeps a clone, so
// the caller may continue to mutate s.
func (p *Profile) SetStrategy(i int, s Strategy) error {
	if i < 0 || i >= p.N() {
		return fmt.Errorf("core: peer %d out of range [0,%d)", i, p.N())
	}
	if s.Contains(i) {
		return fmt.Errorf("core: peer %d strategy contains itself", i)
	}
	max := -1
	s.ForEach(func(j int) bool {
		if j > max {
			max = j
		}
		return true
	})
	if max >= p.N() {
		return fmt.Errorf("core: strategy of peer %d links to %d, out of range [0,%d)", i, max, p.N())
	}
	p.strategies[i] = s.Clone()
	return nil
}

// AddLink adds the directed link from→to.
func (p *Profile) AddLink(from, to int) error {
	if from < 0 || from >= p.N() || to < 0 || to >= p.N() {
		return fmt.Errorf("core: link %d→%d out of range [0,%d)", from, to, p.N())
	}
	if from == to {
		return fmt.Errorf("core: self-link on peer %d", from)
	}
	s := p.strategies[from]
	s.Add(to)
	p.strategies[from] = s
	return nil
}

// RemoveLink removes the directed link from→to if present.
func (p *Profile) RemoveLink(from, to int) error {
	if from < 0 || from >= p.N() || to < 0 || to >= p.N() {
		return fmt.Errorf("core: link %d→%d out of range [0,%d)", from, to, p.N())
	}
	s := p.strategies[from]
	s.Remove(to)
	p.strategies[from] = s
	return nil
}

// HasLink reports whether the directed link from→to exists.
func (p Profile) HasLink(from, to int) bool {
	if from < 0 || from >= p.N() {
		return false
	}
	return p.strategies[from].Contains(to)
}

// LinkCount returns the total number of directed links |E|.
func (p Profile) LinkCount() int {
	total := 0
	for _, s := range p.strategies {
		total += s.Count()
	}
	return total
}

// OutDegree returns |s_i|.
func (p Profile) OutDegree(i int) int { return p.strategies[i].Count() }

// Clone returns a deep copy of the profile.
func (p Profile) Clone() Profile {
	cp := make([]Strategy, len(p.strategies))
	for i, s := range p.strategies {
		cp[i] = s.Clone()
	}
	return Profile{strategies: cp}
}

// Equal reports whether both profiles have identical strategies.
func (p Profile) Equal(q Profile) bool {
	if p.N() != q.N() {
		return false
	}
	for i := range p.strategies {
		if !p.strategies[i].Equal(q.strategies[i]) {
			return false
		}
	}
	return true
}

// Hash returns a hash of the whole profile, used for cycle detection in
// best-response dynamics. Equal profiles hash equally.
func (p Profile) Hash() uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	for _, s := range p.strategies {
		h ^= s.Hash()
		h *= prime
	}
	return h
}

// String renders the profile as adjacency lists, e.g. "0→{1}; 1→{0, 2}".
// Peers with empty strategies are omitted.
func (p Profile) String() string {
	var parts []string
	for i, s := range p.strategies {
		if !s.Empty() {
			parts = append(parts, fmt.Sprintf("%d→%s", i, s.String()))
		}
	}
	if len(parts) == 0 {
		return "(no links)"
	}
	return strings.Join(parts, "; ")
}

// Links returns all directed links as (from, to) pairs in deterministic
// order.
func (p Profile) Links() [][2]int {
	var out [][2]int
	for i, s := range p.strategies {
		s.ForEach(func(j int) bool {
			out = append(out, [2]int{i, j})
			return true
		})
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a][0] != out[b][0] {
			return out[a][0] < out[b][0]
		}
		return out[a][1] < out[b][1]
	})
	return out
}

// ProfileSpaceSize returns the number of strategy profiles on n peers
// (2^(n(n-1))), or +Inf as float64 if it overflows uint64.
func ProfileSpaceSize(n int) float64 {
	bits := n * (n - 1)
	if bits >= 63 {
		return math.Inf(1)
	}
	return float64(uint64(1) << uint(bits))
}

// EnumerateProfiles yields every strategy profile on n peers, reusing a
// single Profile value (clone it to retain). Iteration stops early when
// yield returns false. The space has 2^(n(n-1)) profiles; maxProfiles
// guards the budget (0 means 2^22) and an error is returned when the
// space exceeds it.
func EnumerateProfiles(n, maxProfiles int, yield func(Profile) bool) error {
	if n < 1 {
		return fmt.Errorf("core: cannot enumerate profiles for n=%d", n)
	}
	if maxProfiles <= 0 {
		maxProfiles = 1 << 22
	}
	if size := ProfileSpaceSize(n); size > float64(maxProfiles) {
		return fmt.Errorf("core: profile space has %g profiles for n=%d, budget %d: %w",
			size, n, maxProfiles, ErrSpaceTooLarge)
	}
	masks := make([]uint64, n)
	per := uint64(1) << uint(n-1)
	p := NewProfile(n)
	for {
		for i := 0; i < n; i++ {
			s := bitset.New(n)
			for b := 0; b < n-1; b++ {
				if masks[i]&(1<<uint(b)) != 0 {
					j := b
					if j >= i {
						j++
					}
					s.Add(j)
				}
			}
			if err := p.SetStrategy(i, s); err != nil {
				return err
			}
		}
		if !yield(p) {
			return nil
		}
		i := 0
		for ; i < n; i++ {
			masks[i]++
			if masks[i] < per {
				break
			}
			masks[i] = 0
		}
		if i == n {
			return nil
		}
	}
}

// ErrSpaceTooLarge is returned by EnumerateProfiles when the profile
// space exceeds the caller's budget.
var ErrSpaceTooLarge = errors.New("core: profile space exceeds budget")
