package wal

import (
	"fmt"
	"testing"
)

func leaves(n int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		out[i] = []byte(fmt.Sprintf("payload-%d", i))
	}
	return out
}

func TestMerkleRootDeterministic(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 5, 8, 13, 128} {
		a, b := MerkleRoot(leaves(n)), MerkleRoot(leaves(n))
		if a != b {
			t.Fatalf("n=%d: root not deterministic", n)
		}
	}
	if MerkleRoot(nil) != ([HashSize]byte{}) {
		t.Fatal("empty root should be the zero hash")
	}
	one := leaves(1)
	if MerkleRoot(one) != LeafHash(one[0]) {
		t.Fatal("single-leaf root should be the leaf hash")
	}
}

func TestMerkleRootSensitivity(t *testing.T) {
	base := leaves(7)
	root := MerkleRoot(base)
	// Any single-payload change must change the root.
	for i := range base {
		mutated := leaves(7)
		mutated[i] = append(append([]byte(nil), mutated[i]...), 'x')
		if MerkleRoot(mutated) == root {
			t.Fatalf("mutating leaf %d did not change the root", i)
		}
	}
	// Reordering must change the root.
	swapped := leaves(7)
	swapped[0], swapped[1] = swapped[1], swapped[0]
	if MerkleRoot(swapped) == root {
		t.Fatal("swapping leaves did not change the root")
	}
	// A leaf must not be confusable with an interior node (domain
	// separation): the 2-leaf root re-presented as a single leaf differs.
	two := leaves(2)
	r2 := MerkleRoot(two)
	if MerkleRoot([][]byte{r2[:]}) == MerkleRoot([][]byte{two[0], two[1]}) {
		t.Fatal("interior node accepted as a leaf")
	}
}

// proofStep is one sibling on a Merkle proof path. left reports the
// sibling sits to the left of the running hash.
type proofStep struct {
	sibling [HashSize]byte
	left    bool
}

// merkleProof returns the proof path for payload i: the ⌈log2 n⌉ (or
// fewer, with promoted odd nodes) siblings that hash the leaf up to the
// root. Returns nil when i is out of range. It rebuilds MerkleRoot's tree
// independently, so proofs that verify against MerkleRoot's output pin
// that construction: leaf/node domain separation and odd-node promotion.
func merkleProof(payloads [][]byte, i int) []proofStep {
	if i < 0 || i >= len(payloads) {
		return nil
	}
	level := make([][HashSize]byte, len(payloads))
	for j, p := range payloads {
		level[j] = LeafHash(p)
	}
	var proof []proofStep
	for len(level) > 1 {
		if sib := i ^ 1; sib < len(level) {
			proof = append(proof, proofStep{sibling: level[sib], left: sib < i})
		}
		next := make([][HashSize]byte, 0, (len(level)+1)/2)
		for j := 0; j < len(level); j += 2 {
			if j+1 < len(level) {
				next = append(next, nodeHash(level[j], level[j+1]))
			} else {
				next = append(next, level[j])
			}
		}
		level = next
		i /= 2
	}
	return proof
}

// verifyProof checks payload against root using a proof path from
// merkleProof — O(len(proof)) = O(log n) hashes, no other payloads needed.
func verifyProof(root [HashSize]byte, payload []byte, proof []proofStep) bool {
	h := LeafHash(payload)
	for _, step := range proof {
		if step.left {
			h = nodeHash(step.sibling, h)
		} else {
			h = nodeHash(h, step.sibling)
		}
	}
	return h == root
}

func TestMerkleProofVerifies(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 8, 13, 129} {
		ps := leaves(n)
		root := MerkleRoot(ps)
		for i := 0; i < n; i++ {
			proof := merkleProof(ps, i)
			if !verifyProof(root, ps[i], proof) {
				t.Fatalf("n=%d: proof for leaf %d rejected", n, i)
			}
			// The wrong payload must not verify with this proof.
			if verifyProof(root, []byte("forged"), proof) {
				t.Fatalf("n=%d: forged payload verified at leaf %d", n, i)
			}
			// The right payload at the wrong position must not verify.
			if n > 1 {
				other := merkleProof(ps, (i+1)%n)
				if verifyProof(root, ps[i], other) {
					t.Fatalf("n=%d: leaf %d verified with leaf %d's proof", n, i, (i+1)%n)
				}
			}
		}
	}
	if merkleProof(leaves(4), 4) != nil || merkleProof(leaves(4), -1) != nil {
		t.Fatal("out-of-range proof should be nil")
	}
}

// TestMerkleProofLogarithmic pins the O(log n) claim: a proof over n
// payloads carries at most ⌈log2 n⌉ siblings.
func TestMerkleProofLogarithmic(t *testing.T) {
	for _, n := range []int{2, 64, 256, 1000} {
		ps := leaves(n)
		maxLen := 0
		for i := 0; i < n; i++ {
			if l := len(merkleProof(ps, i)); l > maxLen {
				maxLen = l
			}
		}
		ceilLog := 0
		for v := 1; v < n; v *= 2 {
			ceilLog++
		}
		if maxLen > ceilLog {
			t.Fatalf("n=%d: proof length %d exceeds ceil(log2 n)=%d", n, maxLen, ceilLog)
		}
	}
}
