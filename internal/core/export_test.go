package core

// PinHeap exposes the heap-twin hook (pinHeap, kernel_diff_test.go) to
// the external kernel ablation benchmarks.
var PinHeap = pinHeap
