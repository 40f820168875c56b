package main

import (
	"encoding/hex"
	"strings"
	"testing"
)

// collect runs convert over input and returns the frames it emitted.
func collect(input string, attrs, max int) ([]string, stats, error) {
	var frames []string
	st, err := convert(strings.NewReader(input), attrs, max, func(frame []byte) error {
		frames = append(frames, hex.EncodeToString(frame))
		return nil
	})
	return frames, st, err
}

// TestConvertRefusesWhatTheServerRefuses checks that a line the server's
// NDJSON decode refuses stops the conversion with its line number, before
// any frame holds it: null inside a row used to encode as 0, and data
// after the object was ignored.
func TestConvertRefusesWhatTheServerRefuses(t *testing.T) {
	for _, bad := range []string{
		`{"op":"append","row":[null]}`,
		`{"op":"append","row":[2]} junk`,
	} {
		frames, _, err := collect(`{"op":"append","row":[1]}`+"\n"+bad+"\n", 1, 4096)
		if err == nil || !strings.HasPrefix(err.Error(), "line 2: ") {
			t.Errorf("%s: err = %v, want a refusal naming line 2", bad, err)
		}
		if len(frames) != 0 {
			t.Errorf("%s: wrote %d frames before the refusal", bad, len(frames))
		}
	}
}

// TestConvertFrameBytes pins the frames of valid lines, blank lines
// skipped and two events per frame, to the bytes the tool wrote before it
// decoded lines as the server does.
func TestConvertFrameBytes(t *testing.T) {
	input := `{"op":"append","row":[3,7]}` + "\n\n" + `{"op":"upsert","id":4,"row":[1,0]}` + "\n" + `{"op":"delete","id":2}` + "\n"
	frames, st, err := collect(input, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"1e0000008f076444010200000200000000010400000003000000010000000700000000000000",
		"0d000000701f11d501020000010000000202000000",
	}
	if strings.Join(frames, "|") != strings.Join(want, "|") {
		t.Fatalf("frames\n%v\nwant\n%v", frames, want)
	}
	if st != (stats{events: 3, frames: 2, sent: 59}) {
		t.Fatalf("stats = %+v, want 3 events in 2 frames of 59 bytes", st)
	}
}
