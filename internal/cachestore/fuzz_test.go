package cachestore

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzEntryCodec feeds the entry frame decoder raw bytes: it must never
// panic, and anything it accepts must re-encode to the identical blob
// (the frame is canonical — one byte string per (key, payload)).
func FuzzEntryCodec(f *testing.F) {
	f.Add([]byte{})
	f.Add(EncodeEntry(testKey(1), nil))
	f.Add(EncodeEntry(testKey(2), []byte("payload")))
	f.Add(EncodeEntry(testKey(3), EncodeResult(sampleResult())))
	long := EncodeEntry(testKey(4), bytes.Repeat([]byte{0xab}, 1024))
	f.Add(long)
	f.Add(long[:len(long)-3]) // truncated
	flipped := append([]byte(nil), long...)
	flipped[100] ^= 0x10
	f.Add(flipped) // bit-rotted
	f.Fuzz(func(t *testing.T, data []byte) {
		k, payload, err := DecodeEntry(data)
		if err != nil {
			return
		}
		if got := EncodeEntry(k, payload); !bytes.Equal(got, data) {
			t.Fatalf("accepted non-canonical frame: %d bytes re-encode to %d", len(data), len(got))
		}
	})
}

// FuzzRecordCodecs drives the result-record decoder with raw bytes: no
// panics, and any accepted record must re-encode to a stream whose
// decode equals the first (varints admit non-minimal encodings, so the
// stable property is decode∘encode idempotence, not byte identity).
func FuzzRecordCodecs(f *testing.F) {
	full := EncodeResult(sampleResult())
	f.Add([]byte{})
	f.Add(full)
	f.Add(EncodeResult(&ResultRecord{Source: "ata", SelectedPrefix: -1})) // no gates
	f.Add(full[:len(full)/2])                                             // truncated
	f.Fuzz(func(t *testing.T, data []byte) {
		if r, err := DecodeResult(data); err == nil {
			r2, err := DecodeResult(EncodeResult(r))
			if err != nil || !reflect.DeepEqual(r, r2) {
				t.Fatalf("result record re-encode unstable: %v", err)
			}
		}
	})
}
