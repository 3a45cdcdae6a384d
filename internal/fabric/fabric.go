// Package fabric is the distributed sweep fabric: a coordinator that
// splits scenario.Sweep grids into grid-point shards, and workers
// that pull shards, execute them with the scenario engine, and push
// the rendered rows back. It is the step from "a service" (one
// topogamed process owning one worker pool) to "a fleet": cold sweeps
// scale with the number of registered workers while the final table
// stays byte-identical to a single-process `topogame sweep -json` at
// any shard count, any worker count, and across worker crashes.
//
// The determinism argument is compositional:
//
//   - scenario.RunPointContext renders one grid point's row as a pure
//     function of the point's normalized spec (every spec field,
//     including the measure list, is covered by scenario.Spec.Hash).
//   - The coordinator addresses every row by that hash, fills an
//     index-addressed slice, and reassembles with
//     scenario.Sweep.Assemble — reduction is in grid order, never in
//     completion order.
//   - A shard finishing twice is a no-op: rows land under their
//     content address, and a slot already filled is never
//     overwritten, so retries, reassignments and duplicate
//     completions cannot change a byte.
//
// Liveness is heartbeat-based: workers lease their registration and
// the coordinator reassigns the shards of any worker whose lease
// lapses. Completed rows can persist in a cas.Store, so a
// re-submitted sweep — even after a coordinator restart — is served
// from disk blobs without re-executing a single point.
package fabric

import (
	"errors"
	"time"

	"selfishnet/internal/scenario"
)

// Shard is the unit of work a worker pulls: a slice of a sweep's grid
// points plus the measure columns their rows record. Points carry
// their grid index (for reassembly) and canonical hash (the content
// address their rows are stored under).
type Shard struct {
	ID       string           `json:"id"`
	Measures []string         `json:"measures"`
	Points   []scenario.Point `json:"points"`
}

// ShardResult is what a worker pushes back. On success, Results holds
// one PointResult per shard point, in shard order. On failure, Error
// is set, Results holds the prefix of rows completed before the
// failure (so partial progress is never thrown away), and ErrorIndex
// is the grid index of the point that failed — the coordinator's
// retry accounting and poison quarantine key off it. ErrorIndex is -1
// when the failure cannot be pinned on a specific point.
type ShardResult struct {
	Results    []scenario.PointResult `json:"results,omitempty"`
	Error      string                 `json:"error,omitempty"`
	ErrorIndex int                    `json:"error_index,omitempty"`
}

// WorkerInfo is the coordinator's answer to a registration: the
// worker's id and the liveness lease it must heartbeat within.
type WorkerInfo struct {
	ID    string        `json:"worker_id"`
	Lease time.Duration `json:"-"`
}

// ErrUnknownWorker reports a worker id the coordinator no longer
// tracks (lease expired, or a coordinator restart). Workers recover
// by re-registering; any shard they held is already being reassigned.
var ErrUnknownWorker = errors.New("fabric: unknown worker (lease expired or coordinator restarted; re-register)")

// Client is the worker's view of a coordinator. LocalClient binds
// in-process (tests, single-box fleets); HTTPClient speaks the
// topogamed fabric endpoints. Implementations must be safe for
// concurrent use: the worker heartbeats from a separate goroutine
// while executing shards.
type Client interface {
	Register(name string) (WorkerInfo, error)
	Heartbeat(workerID string) error
	// Next returns the next shard to execute, or nil when the queue is
	// empty (the worker polls again after its poll interval).
	Next(workerID string) (*Shard, error)
	Complete(workerID, shardID string, res ShardResult) error
}

// Wire forms of the fabric HTTP protocol, shared by the serve layer's
// handlers and HTTPClient so both sides marshal identically.

// RegisterRequest is the body of POST /v1/workers/register.
type RegisterRequest struct {
	Name string `json:"name"`
}

// RegisterResponse is its 200 body.
type RegisterResponse struct {
	WorkerID    string `json:"worker_id"`
	LeaseMillis int64  `json:"lease_ms"`
}

// CompleteRequest is the body of POST /v1/shards/{id}/result.
type CompleteRequest struct {
	WorkerID   string                 `json:"worker_id"`
	Results    []scenario.PointResult `json:"results,omitempty"`
	Error      string                 `json:"error,omitempty"`
	ErrorIndex int                    `json:"error_index,omitempty"`
}
