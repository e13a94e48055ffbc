package core

import (
	"context"
	"fmt"

	"repro/internal/blob"
	"repro/internal/fs"
)

// This file is the store-level surface the online compactor
// (internal/compact) drives. Both stores expose the same two structural
// capabilities:
//
//   - CompactObject rewrites one fragmented object into (as) contiguous
//     space (as the allocator allows), publishing a fresh version so
//     readers pinned to the old layout fail typed instead of reading
//     relocated bytes.
//   - PackObjects (FileStore only) coalesces a batch of small objects
//     into one pack extent.
//
// Every rewrite rides the group-commit pipeline — its metadata force is
// batched with concurrent foreground commits — and charges full
// read+write disk cost on the shared virtual clock.

// CompactObject rewrites key's file into contiguous space. It returns
// the bytes moved: 0 when the file is already contiguous, packed, or
// could not be placed. A key with an uncommitted writer fails with
// blob.ErrBusy so the compactor can skip and retry later.
func (s *FileStore) CompactObject(ctx context.Context, key string) (int64, error) {
	return s.rewrite(ctx, key, func() (int64, error) {
		if _, ok := s.vol.Lookup(key); !ok || s.inflightTemp(key) {
			return 0, fmt.Errorf("%w: %s", blob.ErrNotFound, key)
		}
		n, ok := s.vol.CompactFile(key)
		if !ok {
			return 0, nil
		}
		// The relocation is a row update in the metadata database — the
		// isolation from physical location the paper's design buys.
		if err := s.meta.Update(key); err != nil {
			return 0, err
		}
		return n, nil
	})
}

// PackObjects coalesces the given small objects into one pack extent,
// returning the keys actually packed. Keys that are missing, busy with
// an uncommitted writer, or already packed are skipped; fewer than two
// eligible keys is a no-op.
func (s *FileStore) PackObjects(ctx context.Context, keys []string) ([]string, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	var packed []string
	err := s.committer.Do(func() error {
		s.mu.Lock()
		defer s.mu.Unlock()
		eligible := make([]string, 0, len(keys))
		for _, k := range keys {
			if s.inflight[k] || s.inflightTemp(k) {
				continue
			}
			if f, ok := s.vol.Lookup(k); ok && !f.Packed() {
				eligible = append(eligible, k)
			}
		}
		var opts fs.PackOptions
		if s.packCrash {
			s.packCrash = false
			opts.Crash = fs.CrashAfterWrite
		}
		rep, err := s.vol.PackFiles(eligible, opts)
		if err != nil {
			return err
		}
		for _, k := range rep.Packed {
			if err := s.meta.Update(k); err != nil {
				return err
			}
		}
		packed = rep.Packed
		return nil
	})
	return packed, err
}

// ArmPackCrash makes the next PackObjects crash after the pack's data
// and index are written but before any member is switched over —
// the torn-rewrite window Recover must sweep. Pairs with
// ArmCommitCrash for the safe-write path.
func (s *FileStore) ArmPackCrash() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.packCrash = true
}

// CompactObject rewrites key's BLOB through the engine's re-append
// compaction, forcing the commit record through the group-commit
// pipeline. It returns the bytes moved (0 when already contiguous); a
// key with an uncommitted writer fails with blob.ErrBusy. The rewrite
// is a new version: the engine stamps a fresh tag, so readers pinned to
// the old one fail typed, exactly as after a Replace.
func (s *DBStore) CompactObject(ctx context.Context, key string) (int64, error) {
	return s.rewrite(ctx, key, func() (int64, error) { return s.eng.Compact(key) })
}
