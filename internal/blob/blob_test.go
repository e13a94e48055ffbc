package blob

import (
	"testing"

	"repro/internal/disk"
)

func TestOptionsCompose(t *testing.T) {
	geo := disk.DefaultGeometry(1 << 30)
	o := NewOptions(
		WithCapacity(1<<30),
		WithDiskMode(disk.DataMode),
		WithGeometry(geo),
		WithWriteRequestSize(1<<16),
		WithSizeHint(),
		WithDelayedAllocation(),
		WithLogCapacity(2<<30),
		WithMetaCapacity(1<<28),
		WithoutOwnerMap(),
		WithFullLogging(),
		WithGhostHorizon(4),
	)
	if o.Capacity != 1<<30 || o.DiskMode != disk.DataMode {
		t.Fatalf("capacity/mode: %+v", o)
	}
	if o.Geometry == nil || o.Geometry.Clusters != geo.Clusters {
		t.Fatalf("geometry: %+v", o.Geometry)
	}
	if o.WriteRequestSize != 1<<16 || !o.SizeHint || !o.DelayedAllocation {
		t.Fatalf("write path opts: %+v", o)
	}
	if o.LogCapacity != 2<<30 || o.MetaCapacity != 1<<28 {
		t.Fatalf("drive sizing: %+v", o)
	}
	if !o.NoOwnerMap || !o.FullLogging || o.GhostHorizon != 4 {
		t.Fatalf("backend knobs: %+v", o)
	}
	if zero := NewOptions(); zero != (Options{}) {
		t.Fatalf("no options must yield the zero value: %+v", zero)
	}
}
