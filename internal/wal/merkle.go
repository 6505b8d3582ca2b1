package wal

import "crypto/sha256"

// Merkle trees over batch payloads give a group append tamper evidence
// beyond the per-record CRC: the CRC catches torn or bit-rotted records,
// but an attacker (or a buggy tool) that rewrites a payload *and* its CRC
// passes replay silently. A batch root commits to every member payload at
// once, so recovery checks a whole group with one comparison
// (internal/core stores each group's root in its header record).
//
// Construction: leaf = H(0x00 || payload), node = H(0x01 || left || right),
// with an odd node promoted unchanged to the next level. Domain-separating
// leaves from interior nodes blocks the classic second-preimage splice
// where an interior node is re-presented as a leaf.

// HashSize is the byte size of a Merkle hash (SHA-256).
const HashSize = sha256.Size

const (
	leafPrefix = 0x00
	nodePrefix = 0x01
)

// LeafHash hashes one payload as a Merkle leaf.
func LeafHash(payload []byte) [HashSize]byte {
	h := sha256.New()
	h.Write([]byte{leafPrefix})
	h.Write(payload)
	var out [HashSize]byte
	h.Sum(out[:0])
	return out
}

func nodeHash(left, right [HashSize]byte) [HashSize]byte {
	h := sha256.New()
	h.Write([]byte{nodePrefix})
	h.Write(left[:])
	h.Write(right[:])
	var out [HashSize]byte
	h.Sum(out[:0])
	return out
}

// MerkleRoot returns the root over the payloads. The root of zero leaves is
// the zero hash; a single leaf's root is its leaf hash.
func MerkleRoot(payloads [][]byte) [HashSize]byte {
	if len(payloads) == 0 {
		return [HashSize]byte{}
	}
	level := make([][HashSize]byte, len(payloads))
	for i, p := range payloads {
		level[i] = LeafHash(p)
	}
	for len(level) > 1 {
		next := make([][HashSize]byte, 0, (len(level)+1)/2)
		for i := 0; i < len(level); i += 2 {
			if i+1 < len(level) {
				next = append(next, nodeHash(level[i], level[i+1]))
			} else {
				next = append(next, level[i]) // odd node: promote
			}
		}
		level = next
	}
	return level[0]
}
