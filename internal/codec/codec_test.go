package codec

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"strings"
	"testing"
)

func sampleEvents() []Event {
	return []Event{
		{Op: "append", Row: []int{3, 9}},
		{Op: "upsert", ID: 7, Row: []int{1, 2}},
		{Op: "delete", ID: 4},
		{Op: "append", Row: []int{0, 4294967295}},
	}
}

func mustFrame(t *testing.T, events []Event, numAttrs int) []byte {
	t.Helper()
	b, err := AppendFrame(nil, events, numAttrs)
	if err != nil {
		t.Fatalf("AppendFrame: %v", err)
	}
	return b
}

func decode(t *testing.T, body []byte, numAttrs, maxEvents int) ([]Event, error) {
	t.Helper()
	d := GetDecoder()
	defer PutDecoder(d)
	got, err := d.DecodeAll(bytes.NewReader(body), numAttrs, maxEvents)
	if err != nil {
		return nil, err
	}
	// Deep-copy out of the decoder scratch before the deferred PutDecoder.
	out := make([]Event, len(got))
	for i, ev := range got {
		out[i] = Event{Op: ev.Op, ID: ev.ID, Row: append([]int(nil), ev.Row...)}
	}
	return out, nil
}

func eventsEqual(a, b []Event) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Op != b[i].Op || a[i].ID != b[i].ID || len(a[i].Row) != len(b[i].Row) {
			return false
		}
		for j := range a[i].Row {
			if a[i].Row[j] != b[i].Row[j] {
				return false
			}
		}
	}
	return true
}

func TestRoundTrip(t *testing.T) {
	events := sampleEvents()
	frame := mustFrame(t, events, 2)
	got, err := decode(t, frame, 2, 100)
	if err != nil {
		t.Fatalf("DecodeAll: %v", err)
	}
	if !eventsEqual(events, got) {
		t.Fatalf("round trip mismatch:\n in: %+v\nout: %+v", events, got)
	}
}

func TestRoundTripMultiFrame(t *testing.T) {
	a := []Event{{Op: "append", Row: []int{1}}, {Op: "delete", ID: 2}}
	b := []Event{{Op: "upsert", ID: 5, Row: []int{9}}}
	body := mustFrame(t, a, 1)
	body = append(body, mustFrame(t, b, 1)...)
	got, err := decode(t, body, 1, 100)
	if err != nil {
		t.Fatalf("DecodeAll: %v", err)
	}
	want := append(append([]Event(nil), a...), b...)
	if !eventsEqual(want, got) {
		t.Fatalf("multi-frame mismatch:\nwant %+v\n got %+v", want, got)
	}
}

func TestRoundTripZeroColumns(t *testing.T) {
	// A deletes-only frame over a zero-attribute domain is legal.
	events := []Event{{Op: "delete", ID: 1}, {Op: "delete", ID: 2}}
	frame := mustFrame(t, events, 0)
	got, err := decode(t, frame, 0, 10)
	if err != nil {
		t.Fatalf("DecodeAll: %v", err)
	}
	if !eventsEqual(events, got) {
		t.Fatalf("zero-column mismatch: %+v", got)
	}
}

func TestRoundTripEmpty(t *testing.T) {
	frame := mustFrame(t, nil, 3)
	got, err := decode(t, frame, 3, 10)
	if err != nil {
		t.Fatalf("DecodeAll: %v", err)
	}
	if len(got) != 0 {
		t.Fatalf("want no events, got %+v", got)
	}
	got, err = decode(t, nil, 3, 10)
	if err != nil || len(got) != 0 {
		t.Fatalf("empty body: got %+v, %v", got, err)
	}
}

func TestEncodeRejects(t *testing.T) {
	cases := []struct {
		name   string
		events []Event
		attrs  int
		want   string
	}{
		{"unknown op", []Event{{Op: "replace"}}, 1, "unknown op"},
		{"short row", []Event{{Op: "append", Row: []int{1}}}, 2, "row has 1 values"},
		{"long row", []Event{{Op: "append", Row: []int{1, 2, 3}}}, 2, "row has 3 values"},
		{"negative value", []Event{{Op: "append", Row: []int{-1}}}, 1, "outside [0, 2^32)"},
		{"huge value", []Event{{Op: "append", Row: []int{math.MaxUint32 + 1}}}, 1, "outside [0, 2^32)"},
		{"negative id", []Event{{Op: "delete", ID: -1}}, 1, "outside [0, 2^32)"},
		{"too many attrs", nil, MaxAttrs + 1, "cap"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := AppendFrame(nil, tc.events, tc.attrs)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("want error containing %q, got %v", tc.want, err)
			}
		})
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	events := sampleEvents()
	frame := mustFrame(t, events, 2)

	t.Run("bit flip payload", func(t *testing.T) {
		bad := append([]byte(nil), frame...)
		bad[len(bad)-1] ^= 0x01
		if _, err := decode(t, bad, 2, 100); err == nil || !strings.Contains(err.Error(), "CRC") {
			t.Fatalf("want CRC error, got %v", err)
		}
	})
	t.Run("bit flip crc", func(t *testing.T) {
		bad := append([]byte(nil), frame...)
		bad[5] ^= 0x80
		if _, err := decode(t, bad, 2, 100); err == nil || !strings.Contains(err.Error(), "CRC") {
			t.Fatalf("want CRC error, got %v", err)
		}
	})
	t.Run("torn header", func(t *testing.T) {
		if _, err := decode(t, frame[:5], 2, 100); err == nil || !strings.Contains(err.Error(), "torn frame header") {
			t.Fatalf("want torn header error, got %v", err)
		}
	})
	t.Run("torn payload", func(t *testing.T) {
		if _, err := decode(t, frame[:len(frame)-3], 2, 100); err == nil || !strings.Contains(err.Error(), "torn frame payload") {
			t.Fatalf("want torn payload error, got %v", err)
		}
	})
	t.Run("huge length prefix", func(t *testing.T) {
		bad := append([]byte(nil), frame...)
		binary.LittleEndian.PutUint32(bad[0:4], math.MaxUint32)
		if _, err := decode(t, bad, 2, 100); err == nil || !strings.Contains(err.Error(), "exceeds") {
			t.Fatalf("want length-bound error, got %v", err)
		}
	})
	t.Run("trailing garbage", func(t *testing.T) {
		bad := append(append([]byte(nil), frame...), 0xde, 0xad)
		if _, err := decode(t, bad, 2, 100); err == nil {
			t.Fatal("want error for trailing garbage, got nil")
		}
	})
	t.Run("wrong attr count", func(t *testing.T) {
		if _, err := decode(t, frame, 3, 100); err == nil || !strings.Contains(err.Error(), "columns") {
			t.Fatalf("want column-count error, got %v", err)
		}
	})
	t.Run("over event budget", func(t *testing.T) {
		if _, err := decode(t, frame, 2, 3); err == nil {
			t.Fatal("want event-budget error, got nil")
		}
	})
	t.Run("wrong version", func(t *testing.T) {
		bad := append([]byte(nil), frame...)
		bad[8] = 9 // version byte is first payload byte
		binary.LittleEndian.PutUint32(bad[4:8], crc32.Checksum(bad[8:], castagnoli))
		if _, err := decode(t, bad, 2, 100); err == nil || !strings.Contains(err.Error(), "version") {
			t.Fatalf("want version error, got %v", err)
		}
	})
	t.Run("reserved bytes", func(t *testing.T) {
		bad := append([]byte(nil), frame...)
		bad[10] = 1 // first reserved byte
		binary.LittleEndian.PutUint32(bad[4:8], crc32.Checksum(bad[8:], castagnoli))
		if _, err := decode(t, bad, 2, 100); err == nil || !strings.Contains(err.Error(), "reserved") {
			t.Fatalf("want reserved-bytes error, got %v", err)
		}
	})
	t.Run("bad op byte", func(t *testing.T) {
		bad := append([]byte(nil), frame...)
		bad[16] = 7 // first op byte (8 hdr + 8 payload hdr)
		binary.LittleEndian.PutUint32(bad[4:8], crc32.Checksum(bad[8:], castagnoli))
		if _, err := decode(t, bad, 2, 100); err == nil || !strings.Contains(err.Error(), "op byte") {
			t.Fatalf("want op-byte error, got %v", err)
		}
	})
	t.Run("count column mismatch", func(t *testing.T) {
		bad := append([]byte(nil), frame...)
		binary.LittleEndian.PutUint32(bad[12:16], 3) // claim 3 events, columns sized for 4
		binary.LittleEndian.PutUint32(bad[4:8], crc32.Checksum(bad[8:], castagnoli))
		if _, err := decode(t, bad, 2, 100); err == nil {
			t.Fatal("want payload-size error, got nil")
		}
	})
}

// TestDecoderReuse checks that a pooled decoder's scratch survives reuse
// across bodies of different shapes without cross-contamination.
func TestDecoderReuse(t *testing.T) {
	d := GetDecoder()
	defer PutDecoder(d)
	big := make([]Event, 500)
	for i := range big {
		big[i] = Event{Op: "append", Row: []int{i, i * 2, i * 3}}
	}
	bigFrame := mustFrame(t, big, 3)
	small := []Event{{Op: "upsert", ID: 1, Row: []int{42}}}
	smallFrame := mustFrame(t, small, 1)
	for round := 0; round < 3; round++ {
		got, err := d.DecodeAll(bytes.NewReader(bigFrame), 3, 1000)
		if err != nil || !eventsEqual(big, got) {
			t.Fatalf("round %d big: err=%v match=%v", round, err, eventsEqual(big, got))
		}
		got, err = d.DecodeAll(bytes.NewReader(smallFrame), 1, 1000)
		if err != nil || !eventsEqual(small, got) {
			t.Fatalf("round %d small: err=%v got=%+v", round, err, got)
		}
	}
}

// TestDecodeSteadyStateAllocs checks the tentpole property: a warmed
// decoder decodes a batch with no per-event allocation.
func TestDecodeSteadyStateAllocs(t *testing.T) {
	events := make([]Event, 256)
	for i := range events {
		events[i] = Event{Op: "append", Row: []int{i % 100, i % 7}}
	}
	frame := mustFrame(t, events, 2)
	d := GetDecoder()
	defer PutDecoder(d)
	rd := bytes.NewReader(frame)
	if _, err := d.DecodeAll(rd, 2, 1000); err != nil { // warm the scratch
		t.Fatalf("warmup: %v", err)
	}
	avg := testing.AllocsPerRun(100, func() {
		rd.Reset(frame)
		if _, err := d.DecodeAll(rd, 2, 1000); err != nil {
			t.Fatalf("DecodeAll: %v", err)
		}
	})
	if avg > 0 {
		t.Fatalf("warmed decode allocates %.1f times per batch, want 0", avg)
	}
}

func BenchmarkBatchDecode(b *testing.B) {
	events := make([]Event, 256)
	for i := range events {
		events[i] = Event{Op: "append", Row: []int{i % 100, i % 7}}
	}
	frame, err := AppendFrame(nil, events, 2)
	if err != nil {
		b.Fatal(err)
	}
	d := GetDecoder()
	defer PutDecoder(d)
	rd := bytes.NewReader(frame)
	b.ReportAllocs()
	b.SetBytes(int64(len(frame)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rd.Reset(frame)
		if _, err := d.DecodeAll(rd, 2, len(events)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBatchEncode(b *testing.B) {
	events := make([]Event, 256)
	for i := range events {
		events[i] = Event{Op: "append", Row: []int{i % 100, i % 7}}
	}
	var buf []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		buf, err = AppendFrame(buf[:0], events, 2)
		if err != nil {
			b.Fatal(err)
		}
	}
}
