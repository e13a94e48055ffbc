package blob

import (
	"sync"
	"unsafe"
)

// keyStripes is the number of stripes in a KeyLocks. Power of two so
// the hash folds with a mask.
const keyStripes = 64

// KeyLocks is a striped per-key lock: keys hash onto a fixed array of
// mutexes, giving per-key mutual exclusion without a lock per live
// object. Package shard orders same-key mutations through it; the core
// stores need none, since one store mutex already serializes their
// single-threaded engines.
//
// Locks are held for the duration of one store call, never across a
// Reader's or Writer's lifetime, so callers cannot deadlock themselves
// by interleaving handles. The zero value is ready to use.
type KeyLocks struct {
	stripes [keyStripes]paddedMutex
}

// paddedMutex gives each stripe its own cache line: with hundreds of
// streams hashing across the array, adjacent stripes packed 8 bytes
// apart would false-share every lock word.
type paddedMutex struct {
	sync.Mutex
	_ [64 - unsafe.Sizeof(sync.Mutex{})%64]byte
}

// stripe returns the lock shard for key (FNV-1a, folded to the stripe
// count).
func (kl *KeyLocks) stripe(key string) *paddedMutex {
	return &kl.stripes[fnv1a(key)&(keyStripes-1)]
}

// fnv1a hashes s with 64-bit FNV-1a.
func fnv1a(s string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	return h
}

// Lock acquires key's stripe.
func (kl *KeyLocks) Lock(key string) { kl.stripe(key).Lock() }

// Unlock releases key's stripe.
func (kl *KeyLocks) Unlock(key string) { kl.stripe(key).Unlock() }
