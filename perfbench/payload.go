package main

import (
	"encoding/binary"
	"hash/fnv"
)

// payloadSeed mixes the run seed, key and version into the generator
// state of one object version, so every written payload is derived from
// seed + key + version and a reader can regenerate it for comparison.
func payloadSeed(seed int64, key string, version int) uint64 {
	h := fnv.New64a()
	var b [16]byte
	binary.LittleEndian.PutUint64(b[:8], uint64(seed))
	binary.LittleEndian.PutUint64(b[8:], uint64(version))
	h.Write(b[:])
	h.Write([]byte(key))
	return h.Sum64()
}

// splitmix64 advances x and returns the next generator word.
func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// fillPayload writes the payload of (seed, key, version) into buf.
func fillPayload(buf []byte, seed int64, key string, version int) {
	x := payloadSeed(seed, key, version)
	i := 0
	for ; i+8 <= len(buf); i += 8 {
		binary.LittleEndian.PutUint64(buf[i:], splitmix64(&x))
	}
	if i < len(buf) {
		var tail [8]byte
		binary.LittleEndian.PutUint64(tail[:], splitmix64(&x))
		copy(buf[i:], tail[:])
	}
}

// payloadMatches reports whether data is exactly the size-byte payload
// of (seed, key, version), without materializing the expected bytes.
func payloadMatches(data []byte, size int64, seed int64, key string, version int) bool {
	if int64(len(data)) != size {
		return false
	}
	x := payloadSeed(seed, key, version)
	i := 0
	for ; i+8 <= len(data); i += 8 {
		if binary.LittleEndian.Uint64(data[i:]) != splitmix64(&x) {
			return false
		}
	}
	if i < len(data) {
		var tail [8]byte
		binary.LittleEndian.PutUint64(tail[:], splitmix64(&x))
		for j := i; j < len(data); j++ {
			if data[j] != tail[j-i] {
				return false
			}
		}
	}
	return true
}
