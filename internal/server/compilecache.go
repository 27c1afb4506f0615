package server

import (
	"crypto/sha256"
	"io"
	"sync"
	"sync/atomic"

	"atomemu/internal/asm"
	"atomemu/internal/engine"
	"atomemu/internal/gac"
)

// This file is the admission side of "compile once, translate once": a
// content-addressed cache of compiled images, and the second-sight rule it
// shares with the translation store. Both caches keep something for a key
// only from the second time the key is offered. The first job for a key
// leaves 32 bytes behind (the key, in a sightings set), the second does the
// work and publishes it, the third onward hits. That is a property of the
// input stream: traffic that never repeats publishes and retains nothing,
// so it pays one hash per job for the reuse repeat traffic gets.

// sightingsGen bounds a sightings generation; two generations are live, so
// a key is remembered for at least this many distinct later keys and the
// set never holds more than twice as many (~100 bytes a key in map form).
const sightingsGen = 1 << 14

// sightings is a bounded set of recently offered keys: the probation list
// of second-sight admission.
type sightings struct {
	mu        sync.Mutex
	cur, prev map[[32]byte]struct{}
}

// seen remembers k and reports whether it was remembered already.
func (s *sightings) seen(k [32]byte) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.cur[k]; ok {
		return true
	}
	_, ok := s.prev[k]
	if s.cur == nil || len(s.cur) >= sightingsGen {
		s.prev, s.cur = s.cur, make(map[[32]byte]struct{})
	}
	s.cur[k] = struct{}{}
	return ok
}

// compileCacheBytes caps the compile cache. Images are a few hundred
// kilobytes at the largest source the server admits, so this holds the hot
// set of a worker many times over while staying a small part of one
// machine's guest memory.
const compileCacheBytes = 32 << 20

// compiled is one compiled program: the image, shared read-only by every
// job admitted with the same source, and its engine.ImageKey, a sha256 over
// the whole image taken once here: job admission counts sightings by it and
// the machine's translation store view is keyed with it (LoadKeyedImage).
type compiled struct {
	im   *asm.Image
	hash [32]byte

	bytes   int    // what the entry counts against the cap
	lastUse uint64 // guarded by compileCache.mu
}

// compileFresh compiles src, bypassing any cache.
func compileFresh(src string) (*compiled, error) {
	im, err := gac.Compile(src)
	if err != nil {
		return nil, err
	}
	return newCompiled(im), nil
}

func newCompiled(im *asm.Image) *compiled {
	c := &compiled{im: im, hash: engine.ImageKey(im), bytes: 4 * len(im.Words)}
	for name := range im.Symbols {
		c.bytes += len(name) + 48 // map slot, string header, value
	}
	return c
}

// compileCache maps the sha256 of a GAC source to its compiled image:
// byte-bounded, least-recently-used out first, admitted on second sight.
type compileCache struct {
	maxBytes int
	seen     sightings

	hits, misses atomic.Uint64

	mu      sync.Mutex
	entries map[[32]byte]*compiled
	bytes   int
	tick    uint64
}

func newCompileCache(maxBytes int) *compileCache {
	return &compileCache{maxBytes: maxBytes, entries: make(map[[32]byte]*compiled)}
}

// compile returns the image for src, compiling it unless an earlier job
// left it here. Compilation runs outside the lock; two jobs racing on one
// source both compile and the first to finish is kept.
func (c *compileCache) compile(src string) (*compiled, error) {
	h := sha256.New()
	io.WriteString(h, src)
	var key [32]byte
	h.Sum(key[:0])

	c.mu.Lock()
	if e := c.entries[key]; e != nil {
		c.tick++
		e.lastUse = c.tick
		c.mu.Unlock()
		c.hits.Add(1)
		return e, nil
	}
	c.mu.Unlock()
	c.misses.Add(1)

	e, err := compileFresh(src)
	if err != nil {
		return nil, err
	}
	if !c.seen.seen(key) || e.bytes > c.maxBytes {
		return e, nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if first := c.entries[key]; first != nil {
		return first, nil
	}
	c.tick++
	e.lastUse = c.tick
	c.entries[key] = e
	c.bytes += e.bytes
	for c.bytes > c.maxBytes {
		var victimKey [32]byte
		var victim *compiled
		for k, v := range c.entries {
			if victim == nil || v.lastUse < victim.lastUse {
				victimKey, victim = k, v
			}
		}
		delete(c.entries, victimKey)
		c.bytes -= victim.bytes
	}
	return e, nil
}

// size reports the bytes and entries currently cached.
func (c *compileCache) size() (bytes, entries int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes, len(c.entries)
}
