package ivstore

import (
	"reflect"
	"testing"

	"mica/internal/stats"
)

// TestMemSource pins the in-memory Source: shards come in the name
// order the Mem was made with whatever order they were written in, a
// name nothing was written for is absent, ReadShard returns the
// written matrix itself (nothing is copied or rounded), and malformed
// writes and out-of-range reads are errors.
func TestMemSource(t *testing.T) {
	mem := NewMem([]string{"a", "b", "c"})
	b := stats.FromRows([][]float64{{1.5, 2}, {3, 4}, {5, 6}})
	a := stats.FromRows([][]float64{{0.1, 0.2}})
	if err := mem.WriteShard("b", []uint64{10, 20, 5}, b); err != nil {
		t.Fatal(err)
	}
	if err := mem.WriteShard("a", []uint64{7}, a); err != nil {
		t.Fatal(err)
	}

	want := []Shard{{Name: "a", Rows: 1, Insts: 7}, {Name: "b", Rows: 3, Insts: 35}}
	if got := mem.Shards(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Shards() = %+v, want %+v", got, want)
	}
	sd, err := mem.ReadShard(1)
	if err != nil {
		t.Fatal(err)
	}
	if sd.Name != "b" || sd.Vecs != b || !reflect.DeepEqual(sd.Insts, []uint64{10, 20, 5}) {
		t.Fatalf("ReadShard(1) = %+v, want shard b holding the written matrix", sd)
	}
	for _, i := range []int{-1, 2} {
		if _, err := mem.ReadShard(i); err == nil {
			t.Errorf("ReadShard(%d) of 2 shards succeeded", i)
		}
	}

	for name, w := range map[string]struct {
		insts []uint64
		vecs  *stats.Matrix
	}{
		"nil matrix":     {[]uint64{1}, nil},
		"no rows":        {nil, stats.NewMatrix(0, 2)},
		"count mismatch": {[]uint64{1, 2}, a},
		"missing counts": {nil, a},
	} {
		if err := mem.WriteShard("c", w.insts, w.vecs); err == nil {
			t.Errorf("%s: WriteShard accepted it", name)
		}
	}
	if got := len(mem.Shards()); got != 2 {
		t.Fatalf("a refused write left %d shards, want 2", got)
	}
}
