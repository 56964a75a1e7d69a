package ivstore

import (
	"fmt"
	"sync"

	"mica/internal/stats"
)

// Source is the read side every interval pipeline analyzes: an ordered
// sequence of shards, each read whole. A committed *Store is one; a
// *Mem, which holds the shards in memory, is the other.
type Source interface {
	// Shards returns the shard inventory in row order.
	Shards() []Shard
	// ReadShard returns shard i's rows.
	ReadShard(i int) (*ShardData, error)
}

// Mem is an in-memory Source: each shard is kept as written, nothing
// copied or rounded, so analyzing a Mem gives exactly what the same
// analysis gives on the vectors themselves — and, for the float32
// values the pipelines characterize, what it gives on a Store. Its
// shard order is the name order it was made with; a name nothing was
// written for is absent. WriteShard is safe for concurrent use;
// ReadShard returns the written data itself, so readers must not
// modify it.
type Mem struct {
	mu    sync.Mutex
	names []string
	data  map[string]*ShardData
}

// NewMem returns an empty in-memory source whose shards will come in
// names order.
func NewMem(names []string) *Mem {
	return &Mem{names: names, data: make(map[string]*ShardData, len(names))}
}

// WriteShard keeps one benchmark's intervals: insts[i] is interval i's
// dynamic instruction count and vecs row i its vector.
func (m *Mem) WriteShard(name string, insts []uint64, vecs *stats.Matrix) error {
	if vecs == nil || vecs.Rows == 0 || len(insts) != vecs.Rows {
		return fmt.Errorf("ivstore: keeping shard %s: no rows, or not one interval count per row", name)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.data[name] = &ShardData{Name: name, Insts: insts, Vecs: vecs}
	return nil
}

// written returns the written shards in names order.
func (m *Mem) written() []*ShardData {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []*ShardData
	for _, n := range m.names {
		if sd, ok := m.data[n]; ok {
			out = append(out, sd)
		}
	}
	return out
}

// Shards returns the written shards' inventory in names order.
func (m *Mem) Shards() []Shard {
	sds := m.written()
	shards := make([]Shard, len(sds))
	for i, sd := range sds {
		var total uint64
		for _, n := range sd.Insts {
			total += n
		}
		shards[i] = Shard{Name: sd.Name, Rows: sd.Vecs.Rows, Insts: total}
	}
	return shards
}

// ReadShard returns written shard i (an index into Shards).
func (m *Mem) ReadShard(i int) (*ShardData, error) {
	sds := m.written()
	if i < 0 || i >= len(sds) {
		return nil, fmt.Errorf("ivstore: shard index %d out of range [0, %d)", i, len(sds))
	}
	return sds[i], nil
}
