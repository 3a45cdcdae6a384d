package core

import (
	"strings"
	"testing"

	"selfishnet/internal/bitset"
)

func TestProfileLinksBasics(t *testing.T) {
	p := NewProfile(4)
	if p.N() != 4 || p.LinkCount() != 0 {
		t.Fatal("fresh profile should be empty")
	}
	if err := p.AddLink(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := p.AddLink(0, 2); err != nil {
		t.Fatal(err)
	}
	if !p.HasLink(0, 1) || p.HasLink(1, 0) {
		t.Fatal("links are directed")
	}
	if p.OutDegree(0) != 2 || p.LinkCount() != 2 {
		t.Fatal("degree accounting wrong")
	}
	if err := p.RemoveLink(0, 1); err != nil {
		t.Fatal(err)
	}
	if p.HasLink(0, 1) {
		t.Fatal("link not removed")
	}
}

func TestProfileLinkValidation(t *testing.T) {
	p := NewProfile(3)
	if err := p.AddLink(0, 0); err == nil {
		t.Error("self-link should error")
	}
	if err := p.AddLink(0, 3); err == nil {
		t.Error("out-of-range target should error")
	}
	if err := p.AddLink(-1, 0); err == nil {
		t.Error("out-of-range source should error")
	}
	if err := p.RemoveLink(0, 9); err == nil {
		t.Error("out-of-range remove should error")
	}
	if p.HasLink(-2, 0) {
		t.Error("HasLink out of range should be false")
	}
}

func TestProfileFromLinks(t *testing.T) {
	p, err := ProfileFromLinks(3, map[int][]int{0: {1, 2}, 2: {0}})
	if err != nil {
		t.Fatal(err)
	}
	if p.LinkCount() != 3 || !p.HasLink(2, 0) {
		t.Fatal("links not built")
	}
	if _, err := ProfileFromLinks(3, map[int][]int{5: {0}}); err == nil {
		t.Error("bad source should error")
	}
	if _, err := ProfileFromLinks(3, map[int][]int{0: {0}}); err == nil {
		t.Error("self link should error")
	}
}

func TestSetStrategyValidation(t *testing.T) {
	p := NewProfile(3)
	if err := p.SetStrategy(0, bitset.FromSlice([]int{0})); err == nil {
		t.Error("strategy containing self should error")
	}
	if err := p.SetStrategy(0, bitset.FromSlice([]int{7})); err == nil {
		t.Error("strategy out of range should error")
	}
	if err := p.SetStrategy(5, bitset.FromSlice([]int{1})); err == nil {
		t.Error("peer out of range should error")
	}
	s := bitset.FromSlice([]int{1, 2})
	if err := p.SetStrategy(0, s); err != nil {
		t.Fatal(err)
	}
	// The profile must hold a clone: mutating s afterwards is invisible.
	s.Add(0) // would be a self-link if shared
	if p.HasLink(0, 0) {
		t.Error("SetStrategy should clone the strategy")
	}
}

func TestProfileCloneIndependence(t *testing.T) {
	p := NewProfile(3)
	_ = p.AddLink(0, 1)
	q := p.Clone()
	_ = q.AddLink(1, 2)
	_ = q.RemoveLink(0, 1)
	if !p.HasLink(0, 1) || p.HasLink(1, 2) {
		t.Fatal("clone mutation leaked into original")
	}
}

func TestProfileEqualAndHash(t *testing.T) {
	a := NewProfile(3)
	b := NewProfile(3)
	_ = a.AddLink(0, 2)
	_ = b.AddLink(0, 2)
	if !a.Equal(b) {
		t.Fatal("equal profiles reported unequal")
	}
	if a.Hash() != b.Hash() {
		t.Fatal("equal profiles must hash equally")
	}
	_ = b.AddLink(2, 0)
	if a.Equal(b) {
		t.Fatal("different profiles reported equal")
	}
	if a.Hash() == b.Hash() {
		t.Fatal("hash collision on trivially different profiles (suspicious)")
	}
	if a.Equal(NewProfile(4)) {
		t.Fatal("profiles of different sizes reported equal")
	}
}

func TestProfileHashOrderSensitivity(t *testing.T) {
	// Same links assigned to different peers must hash differently:
	// 0→{1} vs 1→{0} on n=2... these have different strategy vectors.
	a := NewProfile(2)
	_ = a.AddLink(0, 1)
	b := NewProfile(2)
	_ = b.AddLink(1, 0)
	if a.Hash() == b.Hash() {
		t.Fatal("transposed profiles should hash differently")
	}
}

func TestProfileLinksOrdering(t *testing.T) {
	p := NewProfile(4)
	_ = p.AddLink(2, 0)
	_ = p.AddLink(0, 3)
	_ = p.AddLink(0, 1)
	links := p.Links()
	want := [][2]int{{0, 1}, {0, 3}, {2, 0}}
	if len(links) != len(want) {
		t.Fatalf("Links = %v", links)
	}
	for i := range want {
		if links[i] != want[i] {
			t.Fatalf("Links = %v, want %v", links, want)
		}
	}
}

func TestProfileString(t *testing.T) {
	p := NewProfile(3)
	if got := p.String(); got != "(no links)" {
		t.Errorf("String = %q", got)
	}
	_ = p.AddLink(1, 0)
	_ = p.AddLink(1, 2)
	if got := p.String(); !strings.Contains(got, "1→{0, 2}") {
		t.Errorf("String = %q", got)
	}
}
