package codec

import (
	"bytes"
	"testing"
)

// FuzzBatchDecode throws arbitrary bytes at the frame decoder under a few
// (numAttrs, maxEvents) shapes. The decoder must never panic, never
// over-allocate past the length bound, and — when it does accept a body —
// return events that re-encode to a decodable equivalent (round-trip
// closure). Seed corpus lives in testdata/fuzz/FuzzBatchDecode, mirroring
// the WAL decoder's corpus layout.
func FuzzBatchDecode(f *testing.F) {
	valid, err := AppendFrame(nil, sampleFuzzEvents(), 2)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)-3]) // torn tail
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		shapes := []struct{ numAttrs, maxEvents int }{
			{2, 1 << 10},
			{0, 1 << 10},
			{1, 4},
		}
		for _, sh := range shapes {
			d := GetDecoder()
			events, err := d.DecodeAll(bytes.NewReader(data), sh.numAttrs, sh.maxEvents)
			if err == nil {
				if len(events) > sh.maxEvents {
					t.Fatalf("decoded %d events past the %d cap", len(events), sh.maxEvents)
				}
				reenc, err := AppendFrame(nil, events, sh.numAttrs)
				if err != nil {
					t.Fatalf("accepted events fail to re-encode: %v", err)
				}
				again, err := d.DecodeAll(bytes.NewReader(reenc), sh.numAttrs, sh.maxEvents)
				if err != nil {
					t.Fatalf("re-encoded frame fails to decode: %v", err)
				}
				if len(again) != len(events) {
					t.Fatalf("round trip changed event count: %d != %d", len(again), len(events))
				}
			}
			PutDecoder(d)
		}
	})
}

func sampleFuzzEvents() []Event {
	return []Event{
		{Op: "append", Row: []int{3, 9}},
		{Op: "upsert", ID: 7, Row: []int{1, 2}},
		{Op: "delete", ID: 4},
	}
}
