package compact

import (
	"context"

	"repro/internal/blob"
)

// Fleet runs one Compactor per shard of a sharded store — each child
// gets its own scan scope and duty-cycle account, mirroring how a real
// deployment compacts shards independently — with rewrites executed
// through the TOP of the store chain so cache invalidation and shard
// routing hold. Over an unsharded store a Fleet degenerates to a single
// compactor. Fleet implements workload.Background structurally, like
// Compactor.
type Fleet struct {
	comps []*Compactor
}

// innerer is the structural cache-unwrapping capability (cache.Store).
type innerer interface {
	Inner() blob.Store
}

// sharded is the structural shard-enumeration capability (shard.Store).
type sharded interface {
	NumShards() int
	Shard(int) blob.Store
}

// NewFleet builds per-shard compactors for store. Cache layers are
// unwrapped to find the shard fan-out (scans go straight to the
// children), but every rewrite still executes through store itself.
func NewFleet(store blob.Store, cfg Config) (*Fleet, error) {
	base := store
	for {
		if in, ok := base.(innerer); ok {
			base = in.Inner()
			continue
		}
		break
	}
	if sh, ok := base.(sharded); ok {
		comps := make([]*Compactor, 0, sh.NumShards())
		for i := 0; i < sh.NumShards(); i++ {
			c, err := newScoped(store, sh.Shard(i), cfg)
			if err != nil {
				return nil, err
			}
			comps = append(comps, c)
		}
		return &Fleet{comps: comps}, nil
	}
	c, err := New(store, cfg)
	if err != nil {
		return nil, err
	}
	return &Fleet{comps: []*Compactor{c}}, nil
}

// Size returns the number of per-shard compactors.
func (f *Fleet) Size() int { return len(f.comps) }

// RunOnce runs one synchronous cycle on every per-shard compactor,
// returning the aggregated work of this pass.
func (f *Fleet) RunOnce(ctx context.Context) Stats {
	var total Stats
	for _, c := range f.comps {
		s := c.RunOnce(ctx)
		total.add(s)
	}
	return total
}

// CatchUp gives every per-shard compactor, in shard order, one
// synchronous duty-gated work opportunity (see Compactor.CatchUp).
func (f *Fleet) CatchUp(ctx context.Context) {
	for _, c := range f.comps {
		c.CatchUp(ctx)
	}
}

// Stats aggregates CompactStats across the fleet's compactors.
func (f *Fleet) Stats() Stats {
	var total Stats
	for _, c := range f.comps {
		total.add(c.Stats())
	}
	return total
}
