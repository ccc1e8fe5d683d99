package cachestore

import (
	"reflect"
	"testing"
)

func sampleResult() *ResultRecord {
	return &ResultRecord{
		Source:         "hybrid",
		NQubits:        5,
		SelectedPrefix: 7,
		Initial:        []int{4, 3, 2, 1, 0},
		Final:          []int{0, 1, 2, 3, 4},
		Gates: []GateRecord{
			{Kind: 3, Q0: 0, Q1: 1, Angle: 0.37, TagU: 2, TagV: 4, Tagged: true},
			{Kind: 5, Q0: 3, Q1: 4, Angle: 1},
			{Kind: 1, Q0: 2, Q1: -1, Angle: -0.5, TagU: -1, TagV: -1},
		},
	}
}

func TestResultRecordRoundTrip(t *testing.T) {
	in := sampleResult()
	out, err := DecodeResult(EncodeResult(in))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip mismatch:\n in %+v\nout %+v", in, out)
	}

	empty := &ResultRecord{Source: "ata", SelectedPrefix: -1}
	out, err = DecodeResult(EncodeResult(empty))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(empty, out) {
		t.Fatalf("empty round trip mismatch: %+v", out)
	}
}

func TestDecodeRejectsMalformed(t *testing.T) {
	blob := EncodeResult(sampleResult())
	// Every truncation must fail cleanly.
	for i := 0; i < len(blob); i++ {
		if _, err := DecodeResult(blob[:i]); err == nil {
			t.Fatalf("truncation at %d decoded successfully", i)
		}
	}
	// Version skew.
	bad := append([]byte(nil), blob...)
	bad[0] = 99
	if _, err := DecodeResult(bad); err == nil {
		t.Fatal("bad version accepted")
	}
	// Trailing garbage.
	if _, err := DecodeResult(append(append([]byte(nil), blob...), 0)); err == nil {
		t.Fatal("trailing byte accepted")
	}
}

func TestEntryFrameRejectsDamage(t *testing.T) {
	k := testKey(5)
	blob := EncodeEntry(k, []byte("payload"))
	if gotK, p, err := DecodeEntry(blob); err != nil || gotK != k || string(p) != "payload" {
		t.Fatalf("clean decode failed: %v %v %q", gotK, err, p)
	}
	// Every truncation fails.
	for i := 0; i < len(blob); i++ {
		if _, _, err := DecodeEntry(blob[:i]); err == nil {
			t.Fatalf("truncation at %d accepted", i)
		}
	}
	// Every single-bit flip fails (checksum or structure).
	for i := 0; i < len(blob); i++ {
		mut := append([]byte(nil), blob...)
		mut[i] ^= 1
		if gotK, p, err := DecodeEntry(mut); err == nil && gotK == k && string(p) == "payload" {
			t.Fatalf("bit flip at byte %d went unnoticed", i)
		}
	}
}

func TestKeyFilenameRoundTrip(t *testing.T) {
	k := testKey(11)
	got, ok := parseFilename(k.filename())
	if !ok || got != k {
		t.Fatalf("parseFilename(%q) = %v, %v", k.filename(), got, ok)
	}
	if _, ok := parseFilename("not-a-key.e"); ok {
		t.Fatal("junk filename parsed")
	}
}

// TestDecodeResultGatesStreams: the gate reader yields exactly the gates
// DecodeResult collects, and a gate count the payload cannot hold is
// rejected before any gate is read.
func TestDecodeResultGatesStreams(t *testing.T) {
	in := sampleResult()
	rec, gates, err := DecodeResultGates(EncodeResult(in))
	if err != nil {
		t.Fatal(err)
	}
	if rec.Gates != nil || gates.Len() != len(in.Gates) {
		t.Fatalf("header: Gates %v, Len %d", rec.Gates, gates.Len())
	}
	var got []GateRecord
	for g := (GateRecord{}); gates.Next(&g); {
		got = append(got, g)
	}
	if err := gates.Err(); err != nil || !reflect.DeepEqual(got, in.Gates) {
		t.Fatalf("streamed gates %+v (err %v), want %+v", got, err, in.Gates)
	}

	hostile := EncodeResult(&ResultRecord{Source: "x"})
	hostile[len(hostile)-1] = 0x7f // declare 127 gates, supply none
	if _, _, err := DecodeResultGates(append(hostile, make([]byte, 100)...)); err == nil {
		t.Fatal("gate count beyond the payload accepted")
	}
}
