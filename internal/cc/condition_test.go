package cc

import (
	"math/rand"
	"testing"

	"incgraph/internal/fixpoint"
	"incgraph/internal/gen"
)

// TestConditionC2 certifies condition (C2) for the CC instance and the
// consistency of its relaxation fast path (Theorem 3 preconditions).
func TestConditionC2(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := gen.ErdosRenyi(rng, 60, 100, seed%2 == 0)
		inst := NewInstance(g)
		if !fixpoint.CheckContracting[int64](inst) {
			t.Fatalf("seed %d: not contracting", seed)
		}
		eng := fixpoint.New[int64](inst, fixpoint.PriorityOrder)
		eng.Run()
		if !fixpoint.CheckMonotonic[int64](inst, eng.State(), rng, 300) {
			t.Fatalf("seed %d: not monotonic", seed)
		}
		if !fixpoint.CheckRelaxerConsistency[int64](inst, eng.State()) {
			t.Fatalf("seed %d: RelaxOut disagrees with Update", seed)
		}
	}
}
