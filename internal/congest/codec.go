package congest

import (
	"cmp"
	"fmt"
	"runtime"
	"slices"
	"strconv"
	"sync/atomic"
)

// Codec walks a checkpointed layout in either direction over the
// deterministic byte stream snapshots are made of: zigzag varints for
// integers, length-prefixed strings and slices, one byte per bool.
// Encoding, c.Int(&x) appends x; decoding, it parses the next value and
// stores it in x. A layout is therefore written once, as one walk, and the
// encoding and decoding of it are inverses by construction.
//
// Decoding errors latch: after the first malformed read every later read
// is a no-op and Err reports the failure, so a walk checks once at the
// end. Every length prefix is validated against the bytes remaining, so a
// corrupted (or fuzzed) stream cannot force a huge allocation.
type Codec struct {
	buf []byte
	off int
	dec bool
	err error
}

// Stateful is implemented by everything whose state survives a
// checkpoint: protocol nodes, and the Network and Observer installed in
// Config (internal/faults.Network: per-link seq/ACK state, queued
// deliveries, the PRF cursor; internal/obs.Recorder: per-phase counters).
// State walks the round-evolving state with the Codec. A node decodes into
// a node freshly built by the protocol's mk function, so structural,
// input-derived state — the graph view, source index maps, schedule
// parameters — is already in place and only round-evolving state is
// walked. Because the one walk both encodes and decodes, the two are exact
// inverses by construction — what the conformance gate relies on when it
// asserts a resumed run bit-equal to an uninterrupted one. Checks that only
// make sense on input (arity against the run's k, index ranges) run when
// c.Decoding(). A Network or Observer that does
// not implement Stateful is skipped: a snapshot then captures no state for
// it, and restore leaves it untouched.
type Stateful interface {
	State(*Codec) error
}

// Marshal encodes s's state.
func Marshal(s Stateful) ([]byte, error) { return encode(s.State) }

// Unmarshal decodes data into s; bytes left over after the walk are an
// error.
func Unmarshal(data []byte, s Stateful) error { return decode(data, s.State) }

func encode(walk func(*Codec) error) ([]byte, error) {
	c := &Codec{}
	if err := walk(c); err != nil {
		return nil, err
	}
	return c.buf, c.err
}

func decode(data []byte, walk func(*Codec) error) error {
	c := &Codec{buf: data, dec: true}
	if err := walk(c); err != nil {
		return err
	}
	if c.err != nil {
		return c.err
	}
	if rest := len(c.buf) - c.off; rest != 0 {
		return fmt.Errorf("congest: decode: %d trailing bytes", rest)
	}
	return nil
}

// Decoding reports whether the walk is reading a stream.
func (c *Codec) Decoding() bool { return c.dec }

// Err reports the first failure, or nil.
func (c *Codec) Err() error { return c.err }

// Fail latches err as the walk's failure (the first failure wins).
func (c *Codec) Fail(err error) {
	if c.err == nil {
		c.err = err
	}
}

func (c *Codec) failf(format string, args ...interface{}) {
	c.Fail(fmt.Errorf("congest: decode: "+format, args...))
}

// take returns the next n bytes, or nil after a failure.
func (c *Codec) take(n int, what string) []byte {
	if c.err != nil {
		return nil
	}
	if len(c.buf)-c.off < n {
		c.failf("truncated %s at offset %d", what, c.off)
		return nil
	}
	b := c.buf[c.off : c.off+n]
	c.off += n
	return b
}

// walkUint64 is Uint64 without the walk hook (so are the other walkX).
func (c *Codec) walkUint64(x *uint64) {
	if !c.dec {
		v := *x
		for v >= 0x80 {
			c.buf = append(c.buf, byte(v)|0x80)
			v >>= 7
		}
		c.buf = append(c.buf, byte(v))
		return
	}
	var v uint64
	for shift := uint(0); ; shift += 7 {
		if shift > 63 {
			c.failf("varint too long at offset %d", c.off)
			return
		}
		b := c.take(1, "varint")
		if b == nil {
			return
		}
		if shift == 63 && b[0] > 1 {
			c.failf("varint overflow at offset %d", c.off)
			return
		}
		v |= uint64(b[0]&0x7f) << shift
		if b[0] < 0x80 {
			*x = v
			return
		}
	}
}

func (c *Codec) walkInt64(x *int64) {
	u := uint64(*x)<<1 ^ uint64(*x>>63)
	c.walkUint64(&u)
	if c.dec && c.err == nil {
		*x = int64(u>>1) ^ -int64(u&1)
	}
}

func (c *Codec) walkInt(x *int) {
	v := int64(*x)
	c.walkInt64(&v)
	if c.dec && c.err == nil {
		if int64(int(v)) != v {
			c.failf("value %d overflows int", v)
			return
		}
		*x = int(v)
	}
}

func varint[T ~int | ~int8 | ~int16 | ~int32 | ~int64](c *Codec, x *T) {
	v := int64(*x)
	c.walkInt64(&v)
	if !c.dec || c.err != nil {
		return
	}
	if int64(T(v)) != v {
		c.failf("value %d overflows %T", v, *x)
		return
	}
	*x = T(v)
}

func (c *Codec) walkBool(x *bool) {
	if !c.dec {
		var b byte
		if *x {
			b = 1
		}
		c.buf = append(c.buf, b)
		return
	}
	b := c.take(1, "bool")
	if b == nil {
		return
	}
	if b[0] > 1 {
		c.failf("bad bool byte %d at offset %d", b[0], c.off-1)
		return
	}
	*x = b[0] == 1
}

// Int64 walks a signed (zigzag) varint.
func (c *Codec) Int64(x *int64) { c.walkInt64(x); forget(c, x) }

// Int walks a signed varint; decoding checks it fits an int.
func (c *Codec) Int(x *int) { c.walkInt(x); forget(c, x) }

// Varint walks any integer type as a signed varint; decoding rejects a
// value that overflows T.
func Varint[T ~int | ~int8 | ~int16 | ~int32 | ~int64](c *Codec, x *T) { varint(c, x); forget(c, x) }

// Bool walks one byte; decoding rejects anything but 0 and 1.
func (c *Codec) Bool(x *bool) { c.walkBool(x); forget(c, x) }

// walkHook is HookWalks' hook; nil outside the census, where a leaf walk
// pays one atomic load for it.
var walkHook atomic.Pointer[func(site string, decoding bool) bool]

// HookWalks installs h until the returned restore is called. Every
// exported leaf walk (Int, Bool, Varint, Ints, String, Blob, Stats, …)
// then reports its caller's "file:line", and a decoding walk for which h
// returns true leaves the zero value instead of the one it decoded.
// Test seam: the root package's checkpoint census forgets one call site
// at a time to find walked state no conformance cell tells from zero.
// runtime.Caller runs only while a hook is set.
func HookWalks(h func(site string, decoding bool) (forget bool)) (restore func()) {
	walkHook.Store(&h)
	return func() { walkHook.Store(nil) }
}

// forget ends every exported leaf walk: it hands the walk's call site to
// the hook, if one is set, and zeroes *x if the hook asks.
func forget[T any](c *Codec, x *T) {
	h := walkHook.Load()
	if h == nil || c.err != nil {
		return
	}
	_, file, line, _ := runtime.Caller(2)
	if (*h)(file+":"+strconv.Itoa(line), c.dec) && c.dec {
		var zero T
		*x = zero
	}
}

// ulen walks an unsigned length prefix; decoding checks it against the
// bytes remaining (every element costs at least one byte).
func (c *Codec) ulen(n *int) {
	u := uint64(*n)
	c.walkUint64(&u)
	if !c.dec || c.err != nil {
		return
	}
	if u > uint64(len(c.buf)-c.off) {
		c.failf("length %d exceeds %d remaining bytes", u, len(c.buf)-c.off)
		return
	}
	*n = int(u)
}

// Len walks a signed-varint length prefix — the form layouts use for the
// element count of a Slice or Map; decoding rejects a negative count and
// one larger than the bytes remaining.
func (c *Codec) Len(n *int) {
	c.walkInt(n)
	if c.dec && c.err == nil && (*n < 0 || *n > len(c.buf)-c.off) {
		c.failf("length %d exceeds %d remaining bytes", *n, len(c.buf)-c.off)
		*n = 0
	}
}

// String walks a length-prefixed string.
func (c *Codec) String(s *string) {
	n := len(*s)
	c.ulen(&n)
	if !c.dec {
		c.buf = append(c.buf, *s...)
	} else if b := c.take(n, "string"); b != nil {
		*s = string(b)
	}
	forget(c, s)
}

// Blob walks a length-prefixed byte slice; decoding copies it out of the
// stream (nil when empty).
func (c *Codec) Blob(b *[]byte) {
	n := len(*b)
	c.ulen(&n)
	if !c.dec {
		c.buf = append(c.buf, *b...)
	} else if raw := c.take(n, "blob"); raw != nil {
		*b = append([]byte(nil), raw...)
	}
	forget(c, b)
}

// Ints walks a length-prefixed []int (decoded nil when empty).
func (c *Codec) Ints(xs *[]int) {
	for i := range uslice(c, xs) {
		c.walkInt(&(*xs)[i])
	}
	forget(c, xs)
}

// Int64s walks a length-prefixed []int64 (decoded nil when empty).
func (c *Codec) Int64s(xs *[]int64) {
	for i := range uslice(c, xs) {
		c.walkInt64(&(*xs)[i])
	}
	forget(c, xs)
}

// Bools walks a length-prefixed []bool (decoded nil when empty).
func (c *Codec) Bools(xs *[]bool) {
	for i := range uslice(c, xs) {
		c.walkBool(&(*xs)[i])
	}
	forget(c, xs)
}

// Stats walks the logical cost counters.
func (c *Codec) Stats(s *Stats) {
	c.walkInt(&s.Rounds)
	c.walkInt64(&s.Messages)
	c.walkInt(&s.MaxWords)
	c.walkInt(&s.MaxLinkCongestion)
	c.walkInt(&s.MaxNodeSends)
	forget(c, s)
}

// Slice walks the Len prefix of a slice and returns the slice, whose
// elements the caller then walks in order; decoding first replaces *xs
// with zero values of the decoded length (nil when empty).
func Slice[S ~[]E, E any](c *Codec, xs *S) S { return walkLen(c, xs, true) }

// uslice is Slice with an unsigned length prefix (Ints, Int64s, Bools and
// the Snapshot container).
func uslice[S ~[]E, E any](c *Codec, xs *S) S { return walkLen(c, xs, false) }

func walkLen[S ~[]E, E any](c *Codec, xs *S, signed bool) S {
	n := len(*xs)
	if signed {
		c.Len(&n)
	} else {
		c.ulen(&n)
	}
	if c.dec {
		*xs = nil
		if c.err == nil && n > 0 {
			*xs = make(S, n)
		}
	}
	return *xs
}

// Map walks a map as a Len-prefixed run of entries in ascending key order,
// so the stream is deterministic; entry walks one key and its value.
// Decoding replaces *m with a fresh map.
func Map[K cmp.Ordered, V any](c *Codec, m *map[K]V, entry func(*K, *V)) {
	n := len(*m)
	c.Len(&n)
	if !c.dec {
		keys := make([]K, 0, n)
		for k := range *m {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		for _, k := range keys {
			v := (*m)[k]
			entry(&k, &v)
		}
		return
	}
	if c.err != nil {
		return
	}
	*m = make(map[K]V, n)
	for i := 0; i < n && c.err == nil; i++ {
		var k K
		var v V
		entry(&k, &v)
		(*m)[k] = v
	}
}
