package train

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"
)

const (
	shapeShards = 4
	shapeEpochs = 2
	shapeBatch  = 8

	// shardsDigest is the SHA-256 of the final checkpoint the shards=4 run
	// below produces. Any change to the sharded step (the shard split, the
	// shard-order gradient fold, the batch-norm moment replay) or to the
	// checkpoint's wire shape moves it.
	shardsDigest = "54875a412304480355fcbfae66faf09abb08fde23ea5efacb743bf1f10fb3167"
)

// trainSharded trains convProblem's model at the given thread and shard
// counts and returns its encoded final checkpoint (parameters, batch-norm
// running statistics, optimizer state, and epoch stats).
func trainSharded(t *testing.T, threads, shards int) []byte {
	t.Helper()
	x, y, build := convProblem()
	m := build()
	opt := NewSGD(0.05, 0.9, 0)
	res := Run(m, x, y, Config{
		Epochs: shapeEpochs, BatchSize: shapeBatch,
		Optimizer: opt, ClipNorm: 5, Seed: 23,
		Shards: shards, Threads: threads,
	})
	var buf bytes.Buffer
	if err := EncodeCheckpoint(&buf, Capture(m, opt, shapeEpochs, res.Epochs)); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestTrainBitIdenticalAcrossShapes pins the sharded trainer's contract:
// for a fixed shard count, the final checkpoint is byte-identical at every
// thread count, and equal to a pinned digest.
func TestTrainBitIdenticalAcrossShapes(t *testing.T) {
	for _, threads := range []int{1, 2, 4, 7} {
		t.Run(fmt.Sprintf("threads=%d", threads), func(t *testing.T) {
			sum := sha256.Sum256(trainSharded(t, threads, shapeShards))
			if got := hex.EncodeToString(sum[:]); got != shardsDigest {
				t.Fatalf("shards=%d checkpoint digest %s, want %s", shapeShards, got, shardsDigest)
			}
		})
	}
}

// TestShardCountIsSemantic documents the contract's other half: the shard
// count is a semantic knob — unlike threads, changing it changes the
// result (shard-local batch-norm statistics, shard-order reduction).
func TestShardCountIsSemantic(t *testing.T) {
	if bytes.Equal(trainSharded(t, 1, 1), trainSharded(t, 1, shapeShards)) {
		t.Fatal("shards=1 and shards=4 produced identical checkpoints; the shard count should be semantic")
	}
}
