package cluster

import (
	"bytes"
	"errors"
	"io"
	"testing"
)

var frameFixtures = []Frame{
	{Kind: FrameHello, Name: "node-a", Payload: []byte{7}},
	{Kind: FrameCkpt, Name: "ckpt-3", Payload: bytes.Repeat([]byte("ECACKPT1"), 64)},
	{Kind: FrameFileOpen, Name: "wal-4"},
	{Kind: FrameFileData, Name: "wal-4", Payload: []byte{1, 2, 3, 4, 5}},
	{Kind: FrameRemove, Name: "wal-3"},
	{Kind: FrameRule, Name: "node-a", Payload: []byte("create trigger t ...")},
	{Kind: FrameHeartbeat, Name: "node-a", Payload: heartbeatPayload(42, 7)},
}

// retiredKind7 is a well-formed, correctly checksummed frame of the
// reserved kind 7 (once an event-ownership broadcast). The decoder must
// call it corrupt rather than hand it to Apply.
var retiredKind7 = EncodeFrame(Frame{Kind: 7, Name: "node-b", Payload: []byte{2, 'e', 'a', 2, 'e', 'b'}})

func TestFrameRoundTrip(t *testing.T) {
	for _, f := range frameFixtures {
		enc := EncodeFrame(f)
		got, n, err := DecodeReplFrame(enc)
		if err != nil {
			t.Fatalf("%d/%s: %v", f.Kind, f.Name, err)
		}
		if n != len(enc) {
			t.Fatalf("%d/%s: consumed %d of %d", f.Kind, f.Name, n, len(enc))
		}
		if got.Kind != f.Kind || got.Name != f.Name || !bytes.Equal(got.Payload, f.Payload) {
			t.Fatalf("%d/%s: round trip mismatch: %+v", f.Kind, f.Name, got)
		}
	}
}

// TestDecodeShortVsCorrupt pins the diagnostic split: every prefix of a
// valid frame is "short" (wait for more bytes), while a damaged byte
// anywhere in the body or CRC is "corrupt" (the stream is untrustworthy).
func TestDecodeShortVsCorrupt(t *testing.T) {
	enc := EncodeFrame(Frame{Kind: FrameFileData, Name: "wal-1", Payload: []byte("abcdef")})
	for cut := 0; cut < len(enc); cut++ {
		if _, _, err := DecodeReplFrame(enc[:cut]); !errors.Is(err, ErrShortFrame) {
			t.Fatalf("prefix of %d bytes: got %v, want ErrShortFrame", cut, err)
		}
	}
	for i := 4; i < len(enc); i++ { // flipping length-prefix bytes may instead look short; body+CRC must not
		mut := append([]byte(nil), enc...)
		mut[i] ^= 0x40
		if _, _, err := DecodeReplFrame(mut); !errors.Is(err, ErrCorruptFrame) {
			t.Fatalf("flip at %d: got %v, want ErrCorruptFrame", i, err)
		}
	}
	huge := []byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0}
	if _, _, err := DecodeReplFrame(huge); !errors.Is(err, ErrCorruptFrame) {
		t.Fatalf("oversized length: got %v, want ErrCorruptFrame", err)
	}
	if _, _, err := DecodeReplFrame(retiredKind7); !errors.Is(err, ErrCorruptFrame) {
		t.Fatalf("reserved kind 7: got %v, want ErrCorruptFrame", err)
	}
}

// TestTornStreamDamagePinning replays a multi-frame stream with damage
// injected at every byte offset and asserts the reader's behavior is
// pinned: every intact frame before the damage is delivered, nothing at
// or after the damage ever is, and the failure is loud (unexpected EOF or
// corruption), never a silently absorbed frame.
func TestTornStreamDamagePinning(t *testing.T) {
	var stream []byte
	var bounds []int // cumulative end offset of each frame
	for _, f := range frameFixtures {
		stream = AppendFrame(stream, f)
		bounds = append(bounds, len(stream))
	}
	framesBefore := func(off int) int {
		n := 0
		for _, b := range bounds {
			if b <= off {
				n++
			}
		}
		return n
	}

	t.Run("torn", func(t *testing.T) {
		for cut := 0; cut <= len(stream); cut++ {
			r := bytes.NewReader(stream[:cut])
			delivered := 0
			var err error
			for {
				var f Frame
				if f, err = ReadFrame(r); err != nil {
					break
				}
				if f.Kind != frameFixtures[delivered].Kind {
					t.Fatalf("cut=%d: frame %d decoded as kind %d", cut, delivered, f.Kind)
				}
				delivered++
			}
			if want := framesBefore(cut); delivered != want {
				t.Fatalf("cut=%d: delivered %d frames, want %d", cut, delivered, want)
			}
			atBoundary := cut == 0 || framesBefore(cut) > 0 && bounds[framesBefore(cut)-1] == cut
			if atBoundary && err != io.EOF {
				t.Fatalf("cut=%d at a frame boundary: err = %v, want io.EOF", cut, err)
			}
			if !atBoundary && err != io.ErrUnexpectedEOF {
				t.Fatalf("cut=%d mid-frame: err = %v, want io.ErrUnexpectedEOF", cut, err)
			}
		}
	})

	t.Run("flipped", func(t *testing.T) {
		for off := 0; off < len(stream); off++ {
			mut := append([]byte(nil), stream...)
			mut[off] ^= 0x08
			r := bytes.NewReader(mut)
			delivered := 0
			var err error
			for {
				if _, err = ReadFrame(r); err != nil {
					break
				}
				delivered++
			}
			// Damage must surface at (or, for a length-prefix flip that
			// inflates the frame, possibly as a truncation after) the frame
			// containing the flipped byte — never later, and never as EOF
			// with every frame "successfully" read.
			if maxOK := framesBefore(off); delivered > maxOK {
				t.Fatalf("flip at %d: %d frames delivered, only %d precede the damage", off, delivered, maxOK)
			}
			if err == io.EOF {
				t.Fatalf("flip at %d: stream ended clean after %d frames; damage was silently absorbed", off, delivered)
			}
		}
	})
}

func FuzzDecodeReplFrame(f *testing.F) {
	for _, fx := range frameFixtures {
		f.Add(EncodeFrame(fx))
	}
	f.Add(retiredKind7)
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, b []byte) {
		fr, n, err := DecodeReplFrame(b) // must never panic
		if err != nil {
			if !errors.Is(err, ErrShortFrame) && !errors.Is(err, ErrCorruptFrame) {
				t.Fatalf("unexpected error class: %v", err)
			}
			return
		}
		if n < 9 || n > len(b) {
			t.Fatalf("consumed %d of %d", n, len(b))
		}
		re := EncodeFrame(fr)
		if !bytes.Equal(re, b[:n]) {
			t.Fatalf("re-encode mismatch:\n in:  %x\n out: %x", b[:n], re)
		}
		if fr.Kind == FrameHeartbeat {
			decodeHeartbeat(fr.Payload) // must never panic either
		}
	})
}
