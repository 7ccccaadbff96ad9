package cache

import (
	"bytes"
	"errors"
	"testing"

	"rsepsim/internal/ckpt"
)

// TestMSHRLengthMismatchFails pins that a stream holding a different number
// of MSHR fill times than addresses fails with ckpt.ErrLength instead of
// restoring the pairs that line up.
func TestMSHRLengthMismatchFails(t *testing.T) {
	c := l1(FixedLatency(100))
	c.Access(0x1000, 0, false, false)
	c.Access(0x2000, 1, false, false)
	addrs := []uint64{c.mshr[0].addr, c.mshr[1].addr}
	fills := []uint64{c.mshr[0].fill, c.mshr[1].fill}

	// stream writes the cache section as Walk lays it out, with the given
	// MSHR arrays.
	stream := func(addrs, fills []uint64) []byte {
		var buf bytes.Buffer
		s := ckpt.NewEncoder(&buf)
		s.Tag("cache:" + c.cfg.Name)
		ckpt.Fixed(s, c.lines)
		ckpt.Fixed(s, c.tags)
		ckpt.Fixed(s, c.lru)
		ways := make([]uint32, len(c.mruHint))
		for si, h := range c.mruHint {
			ways[si] = h.way
		}
		ckpt.Fixed(s, ways)
		s.Int(&c.filled)
		ckpt.Slice(s, &addrs)
		ckpt.Slice(s, &fills)
		s.U64(&c.mshrMin)
		s.U32(&c.tick)
		for _, v := range []*uint64{&c.Accesses, &c.Misses,
			&c.PrefetchIssued, &c.PrefetchUseful, &c.MSHRStalls} {
			s.U64(v)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if !bytes.Equal(stream(addrs, fills), encodeCache(t, c)) {
		t.Fatal("hand-written cache section differs from Walk's")
	}

	d := l1(FixedLatency(100))
	s, err := ckpt.NewDecoder(bytes.NewReader(stream(addrs, fills[:1])))
	if err != nil {
		t.Fatal(err)
	}
	d.Walk(s)
	if err := s.Close(); !errors.Is(err, ckpt.ErrLength) {
		t.Errorf("decoding 2 MSHR addresses with 1 fill time: error %v, want ckpt.ErrLength", err)
	}
	if n := len(d.mshr) - d.mshrHead; n != 0 {
		t.Errorf("refused restore left %d MSHR entries", n)
	}
}

func encodeCache(t *testing.T, c *Cache) []byte {
	t.Helper()
	var buf bytes.Buffer
	s := ckpt.NewEncoder(&buf)
	c.Walk(s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}
