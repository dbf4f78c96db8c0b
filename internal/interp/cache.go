package interp

import (
	"sync"

	"extra/internal/isps"
)

// The program cache maps a description's structural digest to its
// compiled program. Equal digests mean equal descriptions (up to 128-bit
// collisions, which the interner and the visited set already accept), so a
// program compiled for one tree serves every tree that prints the same.
//
// Descriptions can come from users (binding JSON sent to serve, files in
// a cache directory), so the cache is bounded without a knob, the way the
// isps interner is: each shard is dropped and restarted when it reaches
// cacheShardCap programs. Programs already handed out stay valid; a
// dropped one is compiled again on its next run.
const (
	cacheShards   = 16
	cacheShardCap = 64 // programs per shard before reset
)

type cacheShard struct {
	mu sync.Mutex
	m  map[isps.Digest]*program
}

var programs [cacheShards]cacheShard

// programFor returns d's compiled program, compiling it on a miss.
func programFor(d *isps.Description) *program {
	key := isps.Hash(d)
	sh := &programs[key.Lo%cacheShards]
	sh.mu.Lock()
	p := sh.m[key]
	sh.mu.Unlock()
	if p != nil {
		return p
	}
	p = compile(d)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if q := sh.m[key]; q != nil {
		return q
	}
	if sh.m == nil || len(sh.m) >= cacheShardCap {
		sh.m = make(map[isps.Digest]*program)
	}
	sh.m[key] = p
	return p
}
