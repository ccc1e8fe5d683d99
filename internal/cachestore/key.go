// Package cachestore is the persistent tier of the compilation cache: a
// content-addressed on-disk store of versioned, checksummed entries plus
// an in-memory LRU front (Tiered). Keys are (architecture fingerprint,
// canonical content hash, options digest) triples, so isomorphic compile
// requests — and independently constructed but identical devices — share
// entries across process restarts.
//
// The durability contract is deliberately one-sided: writes are atomic
// (write-temp-then-rename with the data fsync'd first) and the entry
// files are their own index, but any corruption discovered on read —
// a bad magic, a version skew, a checksum mismatch, a truncated file —
// is a silent miss that bumps a counter and deletes the carcass. The
// cache can lose entries; it can never serve a damaged one, and it never
// turns disk rot into a compile error.
package cachestore

import (
	"encoding/binary"
	"encoding/hex"
)

// Kind namespaces the record types sharing one store. The kind byte is
// part of every key and file name. Kinds 2 and 3 are retired: existing
// directories may still hold entries of them, which are never looked up
// and age out under the byte budget, so the numbers must not be reused.
type Kind uint8

// KindResult is a full compiled-circuit record (ResultRecord) in the
// problem's canonical frame.
const KindResult Kind = 1

// Key addresses one cache entry: the architecture's structural
// fingerprint, the record kind, a 32-byte content hash (the canonical
// problem-graph hash), and the digest of the compile options the record
// depends on.
type Key struct {
	Arch uint64
	Kind Kind
	Hash [32]byte
	Opts uint64
}

// keyBytes is the fixed wire size of an encoded Key.
const keyBytes = 8 + 1 + 32 + 8

// encode serializes the key into its fixed 49-byte wire form.
func (k Key) encode() [keyBytes]byte {
	var out [keyBytes]byte
	binary.LittleEndian.PutUint64(out[0:], k.Arch)
	out[8] = byte(k.Kind)
	copy(out[9:41], k.Hash[:])
	binary.LittleEndian.PutUint64(out[41:], k.Opts)
	return out
}

func decodeKey(b []byte) Key {
	var k Key
	k.Arch = binary.LittleEndian.Uint64(b[0:])
	k.Kind = Kind(b[8])
	copy(k.Hash[:], b[9:41])
	k.Opts = binary.LittleEndian.Uint64(b[41:])
	return k
}

// filename is the content address: the hex form of the encoded key plus
// the entry suffix. parseFilename is its inverse.
func (k Key) filename() string {
	enc := k.encode()
	return hex.EncodeToString(enc[:]) + ".e"
}

// shardDir spreads entries over 256 subdirectories by the first hash
// byte, keeping directory fan-in sane for large caches.
func (k Key) shardDir() string {
	return hex.EncodeToString(k.Hash[:1])
}

func parseFilename(name string) (Key, bool) {
	const hexLen = keyBytes * 2
	if len(name) != hexLen+2 || name[hexLen:] != ".e" {
		return Key{}, false
	}
	raw, err := hex.DecodeString(name[:hexLen])
	if err != nil {
		return Key{}, false
	}
	return decodeKey(raw), true
}

// ResultKey addresses a compiled-circuit record.
func ResultKey(archFP uint64, problemHash [32]byte, optsDigest uint64) Key {
	return Key{Arch: archFP, Kind: KindResult, Hash: problemHash, Opts: optsDigest}
}
