package mpi

import "reflect"

// The one elementwise fold under every reduction. A collective resolves its
// operator once per call (newFolder), then folds whole received buffers. An
// operator in fusedFolds, recognised by code pointer, runs as a fused loop of
// its own expression, bit-identical to the per-element loop any other
// operator runs. The table holds concrete instantiations taken at non-generic
// sites: Sum[T] written inside generic code is a closure of its own, so its
// code pointer is not the one of the Sum[float64] a caller passes.
//
// Only operators a workload sends in bulk are registered: Sum[float64], the
// combine's and the data plane's. Every other operator gives the same bits
// through the per-element loop; add one here when a benchmark sends it and a
// paired run shows the gain.

// fusedFolds maps an operator's code pointer to its fused loop, a
// func(dst, a, b []T). Read-only after start-up.
var fusedFolds = map[uintptr]any{
	opPC(Sum[float64]): sumLoop,
}

// opPC is op's code pointer, the key of fusedFolds.
func opPC[T any](op func(T, T) T) uintptr { return reflect.ValueOf(op).Pointer() }

// folder is a reduction operator resolved for whole-buffer folds: op, and
// its fused loop when op is in fusedFolds.
type folder[T any] struct {
	op    func(T, T) T
	fused func(dst, a, b []T)
}

func newFolder[T any](op func(T, T) T) folder[T] {
	fused, _ := fusedFolds[opPC(op)].(func(dst, a, b []T))
	return folder[T]{op: op, fused: fused}
}

// fold sets dst[i] = op(a[i], b[i]) for every i < len(dst). a and b hold at
// least len(dst) elements; dst may be a or b itself.
func (f folder[T]) fold(dst, a, b []T) {
	if f.fused != nil {
		f.fused(dst, a, b)
		return
	}
	a, b = a[:len(dst)], b[:len(dst)]
	for i := range dst {
		dst[i] = f.op(a[i], b[i])
	}
}

// sumLoop calls Sum directly, so the compiler inlines its expression: the
// same bits as the indirect call, without the call.
func sumLoop(dst, a, b []float64) {
	a, b = a[:len(dst)], b[:len(dst)]
	for i := range dst {
		dst[i] = Sum(a[i], b[i])
	}
}
