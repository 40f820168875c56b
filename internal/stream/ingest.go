package stream

import (
	"fmt"
	"slices"

	"blowfish/internal/domain"
	"blowfish/internal/engine"
)

// Event is one wire-level mutation of a streamed dataset.
type Event struct {
	// Op is "append", "upsert" or "delete".
	Op string
	// ID is the tuple identifier for upsert and delete (Dataset index;
	// Remove recycles the last identifier into the removed slot).
	ID int
	// Row holds the attribute values for append and upsert.
	Row []int
}

// EncodeEvents validates events against dom and lowers them to mutations,
// appended to dst. Row values are encoded eagerly so the caller learns
// about malformed rows before anything is numbered or journaled; tuple-id
// range errors can only surface at apply time (the dataset length is known
// only under the table lock) and are counted as rejections instead.
func EncodeEvents(dst []engine.Mutation, dom *domain.Domain, events []Event) ([]engine.Mutation, error) {
	muts := slices.Grow(dst, len(events))[:len(dst)+len(events)]
	for i := range events {
		ev := &events[i]
		switch ev.Op {
		case "append":
			p, err := dom.Encode(ev.Row...)
			if err != nil {
				return nil, fmt.Errorf("event %d: %w", i, err)
			}
			muts[len(dst)+i] = engine.Mutation{Op: engine.MutAdd, P: p}
		case "upsert":
			p, err := dom.Encode(ev.Row...)
			if err != nil {
				return nil, fmt.Errorf("event %d: %w", i, err)
			}
			if ev.ID < 0 {
				return nil, fmt.Errorf("event %d: negative tuple id %d", i, ev.ID)
			}
			muts[len(dst)+i] = engine.Mutation{Op: engine.MutSet, Index: ev.ID, P: p}
		case "delete":
			if ev.ID < 0 {
				return nil, fmt.Errorf("event %d: negative tuple id %d", i, ev.ID)
			}
			muts[len(dst)+i] = engine.Mutation{Op: engine.MutRemove, Index: ev.ID}
		default:
			return nil, fmt.Errorf("event %d: unknown op %q (want append, upsert or delete)", i, ev.Op)
		}
	}
	return muts, nil
}
