package remote

import (
	"bytes"
	"errors"
	"testing"

	"mat2c/internal/artifact"
)

// FuzzDecodeBatch feeds arbitrary replies to the client's batch
// decoder for a fixed request. Whatever it accepts answers every key
// asked for, in order, each answer either a payload whose frame
// verified or a miss; and re-encoding what it accepted gives back the
// input, so it accepts exactly one reply per set of answers.
func FuzzDecodeBatch(f *testing.F) {
	f.Add(goodBatchReply())
	f.Add(batchReply(absentFrame("aa00"), absentFrame("bb11"), absentFrame("cc22")))
	f.Add(batchReply(presentFrame("aa00", ""), presentFrame("bb11", "x"), presentFrame("cc22", "third")))
	f.Add([]byte{})
	f.Add(appendBatchEnd(nil))
	const maxEntry = 1 << 12
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := decodeBatch(bytes.NewReader(data), batchKeys, maxEntry)
		if err != nil {
			if !errors.Is(err, artifact.ErrCorrupt) || got != nil {
				t.Fatalf("failed decode returned %v, %v; want nil, ErrCorrupt", got, err)
			}
			return
		}
		if len(got) != len(batchKeys) {
			t.Fatalf("%d answers for %d keys", len(got), len(batchKeys))
		}
		var again []byte
		for i, a := range got {
			switch {
			case a.Err == nil:
				if len(a.Data) > maxEntry {
					t.Fatalf("key %d: %d-byte payload over the bound", i, len(a.Data))
				}
				again = appendBatchFrame(again, batchKeys[i], a.Data, true)
			case errors.Is(a.Err, artifact.ErrNotFound):
				again = appendBatchFrame(again, batchKeys[i], nil, false)
			case errors.Is(a.Err, artifact.ErrCorrupt):
				if a.Data != nil {
					t.Fatalf("key %d: corrupt answer carries data", i)
				}
				return // its bytes are not recoverable from the answer
			default:
				t.Fatalf("key %d: unexpected error %v", i, a.Err)
			}
		}
		if again = appendBatchEnd(again); !bytes.Equal(again, data) {
			t.Fatalf("accepted reply does not re-encode to itself:\n got %x\nwant %x", again, data)
		}
	})
}
