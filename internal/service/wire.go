package service

// Wire types: the request and response bodies of the v1 API. Every
// response that costs privacy budget echoes the session's remaining budget
// so clients can pace themselves without an extra round trip. They live in
// the service package (not the HTTP front) because they are what a Core
// speaks: every front — HTTP, the shard router — exchanges exactly these.

import (
	"encoding/json"
	"errors"
	"io"

	"blowfish"
)

// DecodeOne decodes the one JSON value rd holds into v. Unknown fields are
// refused, so misspelled parameters fail loudly instead of silently
// defaulting, and so is anything but whitespace after the value.
func DecodeOne(rd io.Reader, v any) error {
	dec := json.NewDecoder(rd)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("trailing data after the JSON value")
	}
	return nil
}

// AttrSpec declares one categorical attribute of a domain.
type AttrSpec struct {
	Name string `json:"name"`
	Size int    `json:"size"`
}

// GraphSpec declares the secret graph of a policy over the declared
// domain: one of the paper's standard specifications by name, an arbitrary
// edge list, or a composition of specs.
//
// Kinds:
//
//	full      — S^full, the complete graph (ε-differential privacy)
//	attr      — S^attr, per-attribute secrets
//	line      — G^{d,1}, the line graph over a 1-D ordered domain
//	l1        — S^{d,θ} under the L1 metric; requires Theta
//	linf      — S^{d,θ} under the L∞ metric; requires Theta
//	partition — S^P over a uniform grid partition; requires Blocks or Widths
//	explicit  — arbitrary adjacency given by Edges
//	compose   — Op ("union", "intersect" or "product") over Graphs
//
// The spec is journaled verbatim in the core's write-ahead log and
// snapshots, and recovery rebuilds the identical compiled plan from it.
// The wire type IS the library's serializable spec (see blowfish.GraphSpec
// for the field reference: Theta for l1/linf, Blocks/Widths for partition,
// Edges — pairs of rows, the dataset row encoding — for explicit,
// Op/Graphs for compose), so a journaled spec can never drift from what
// the create request declared.
type GraphSpec = blowfish.GraphSpec

// CreatePolicyRequest declares a domain and a secret-graph specification.
type CreatePolicyRequest struct {
	Domain []AttrSpec `json:"domain"`
	Graph  GraphSpec  `json:"graph"`
}

// PolicyResponse describes a registered policy.
type PolicyResponse struct {
	ID         string     `json:"id"`
	Name       string     `json:"name"`
	Domain     []AttrSpec `json:"domain"`
	DomainSize int64      `json:"domain_size"`
	// HistogramSensitivity is S(h, P), the noise driver for histogram
	// releases (Theorem 5.1).
	HistogramSensitivity float64 `json:"histogram_sensitivity"`
	// Edges and Components describe the compiled structure of explicit
	// (edge-list or composed) secret graphs; both are omitted for implicit
	// kinds, whose structure is analytic. Components is >= 1 for every
	// explicit graph (a domain has at least one vertex), so its presence is
	// the reliable explicit-backed marker; Edges may be legitimately absent
	// at zero (e.g. an empty intersection).
	Edges      int `json:"edges,omitempty"`
	Components int `json:"components,omitempty"`
}

// CreateDatasetRequest uploads a dataset as integer rows, one tuple per
// row, over either an inline domain or the domain of a registered policy.
type CreateDatasetRequest struct {
	// PolicyID borrows the domain of a registered policy; mutually
	// exclusive with Domain.
	PolicyID string     `json:"policy_id,omitempty"`
	Domain   []AttrSpec `json:"domain,omitempty"`
	Rows     Rows       `json:"rows"`
}

// DatasetResponse describes a registered dataset.
type DatasetResponse struct {
	ID     string     `json:"id"`
	Rows   int        `json:"rows"`
	Domain []AttrSpec `json:"domain"`
}

// CreateSessionRequest opens a budgeted release session against a policy.
type CreateSessionRequest struct {
	PolicyID string  `json:"policy_id"`
	Budget   float64 `json:"budget"`
	// DatasetID is an optional placement hint for sharded deployments:
	// the session is colocated with the named dataset's shard, so its
	// releases over that dataset route without a cross-shard hop. At one
	// shard it changes nothing (every resource is on the one core).
	DatasetID string `json:"dataset_id,omitempty"`
}

// ReleaseRecord is one entry of a session's budget ledger.
type ReleaseRecord struct {
	Label   string  `json:"label"`
	Epsilon float64 `json:"epsilon"`
}

// SessionResponse describes a session and its budget ledger.
type SessionResponse struct {
	ID        string          `json:"id"`
	PolicyID  string          `json:"policy_id"`
	Budget    float64         `json:"budget"`
	Spent     float64         `json:"spent"`
	Remaining float64         `json:"remaining"`
	Releases  []ReleaseRecord `json:"releases,omitempty"`
}

// HistogramRequest draws a complete (or partition-block) histogram release.
type HistogramRequest struct {
	DatasetID string  `json:"dataset_id"`
	Epsilon   float64 `json:"epsilon"`
}

// HistogramResponse carries the noisy counts.
type HistogramResponse struct {
	Counts    []float64 `json:"counts"`
	Remaining float64   `json:"remaining"`
}

// CumulativeRequest draws an Ordered Mechanism cumulative histogram.
type CumulativeRequest struct {
	DatasetID string  `json:"dataset_id"`
	Epsilon   float64 `json:"epsilon"`
}

// CumulativeResponse carries the raw noisy cumulative counts and the
// constrained-inference estimate (monotone, clamped to [0, n]).
type CumulativeResponse struct {
	Raw       []float64 `json:"raw"`
	Inferred  []float64 `json:"inferred"`
	Remaining float64   `json:"remaining"`
}

// RangeQuery is one inclusive range count query q[lo, hi]. The wire type
// IS the library's query (see blowfish.RangeQuery), so a request's queries
// reach the engine without a copy.
type RangeQuery = blowfish.RangeQuery

// RangeRequest builds one Ordered Hierarchical release (charging Epsilon
// once) and answers every query against it.
type RangeRequest struct {
	DatasetID string  `json:"dataset_id"`
	Epsilon   float64 `json:"epsilon"`
	// Fanout is the hierarchy branching factor; defaults to 16.
	Fanout  int          `json:"fanout,omitempty"`
	Queries []RangeQuery `json:"queries"`
}

// RangeResponse carries one answer per query, in request order.
type RangeResponse struct {
	Answers   []float64 `json:"answers"`
	Remaining float64   `json:"remaining"`
}

// ListPoliciesResponse enumerates registered policies, id order.
type ListPoliciesResponse struct {
	Policies []PolicyResponse `json:"policies"`
}

// ListDatasetsResponse enumerates registered datasets, id order.
type ListDatasetsResponse struct {
	Datasets []DatasetResponse `json:"datasets"`
}

// ListSessionsResponse enumerates live sessions, id order.
type ListSessionsResponse struct {
	Sessions []SessionResponse `json:"sessions"`
}

// ListStreamsResponse enumerates live streams, id order.
type ListStreamsResponse struct {
	Streams []StreamResponse `json:"streams"`
}

// EventWire is one streamed mutation. Op is "append" (Row required),
// "upsert" (ID + Row) or "delete" (ID). Tuple ids are dataset indexes;
// deletes recycle the last id into the removed slot (Dataset.Remove swap
// semantics).
type EventWire struct {
	Op  string `json:"op"`
	ID  int    `json:"id,omitempty"`
	Row Row    `json:"row,omitempty"`
}

// MaxEvents caps one events request, in every body encoding: a larger
// batch is refused whole.
const MaxEvents = 4096

// EventsRequest submits a batch of events to a dataset's event log. The
// same endpoint accepts NDJSON (Content-Type application/x-ndjson): one
// EventWire object per line, no envelope.
type EventsRequest struct {
	Events []EventWire `json:"events"`
}

// EventsResponse acknowledges a batch that is applied (and, on a durable
// server, journaled): the sequence numbers assigned to its first and last
// event, and how many of its events were refused at apply time (bad tuple
// ids), with the last refusal's message.
type EventsResponse struct {
	Accepted  int    `json:"accepted"`
	FirstSeq  uint64 `json:"first_seq,omitempty"`
	LastSeq   uint64 `json:"last_seq,omitempty"`
	Rejected  uint64 `json:"rejected"`
	LastError string `json:"last_error,omitempty"`
}

// EpochSpec is a stream's per-epoch epsilon schedule and cadence.
type EpochSpec struct {
	// Epsilon is the per-epoch, per-kind ε (epoch e costs
	// epsilon·decay^e·|kinds| of the budget).
	Epsilon float64 `json:"epsilon"`
	// Decay multiplies the epsilon each epoch; 0 means 1 (constant).
	Decay float64 `json:"decay,omitempty"`
	// Epsilons overrides the schedule for the first len(epsilons) epochs.
	Epsilons []float64 `json:"epsilons,omitempty"`
	// IntervalMS, when positive, closes epochs automatically every this
	// many milliseconds; 0 means epochs close only via POST .../epochs.
	IntervalMS int `json:"interval_ms,omitempty"`
}

// WindowSpec selects the stream's window semantics.
type WindowSpec struct {
	// Kind is "cumulative" (default), "tumbling" or "sliding".
	Kind string `json:"kind,omitempty"`
	// Epochs is the sliding-window width (required for kind "sliding").
	Epochs int `json:"epochs,omitempty"`
}

// CreateStreamRequest binds a dataset and a policy into a continual-release
// stream with a total ε budget.
type CreateStreamRequest struct {
	PolicyID  string     `json:"policy_id"`
	DatasetID string     `json:"dataset_id"`
	Budget    float64    `json:"budget"`
	Epoch     EpochSpec  `json:"epoch"`
	Window    WindowSpec `json:"window,omitempty"`
	// Kinds defaults to ["histogram"]; also "cumulative" and "range".
	Kinds []string `json:"kinds,omitempty"`
	// Fanout is the range-release hierarchy branching factor; default 16.
	Fanout int `json:"fanout,omitempty"`
	// RangeQueries are answered by each "range" release.
	RangeQueries []RangeQuery `json:"range_queries,omitempty"`
	// MaxReleases bounds the buffered releases (older ones are evicted);
	// default 1024.
	MaxReleases int `json:"max_releases,omitempty"`
}

// StreamResponse describes a stream and its progress.
type StreamResponse struct {
	ID        string   `json:"id"`
	PolicyID  string   `json:"policy_id"`
	DatasetID string   `json:"dataset_id"`
	Budget    float64  `json:"budget"`
	Spent     float64  `json:"spent"`
	Remaining float64  `json:"remaining"`
	Window    string   `json:"window"`
	Kinds     []string `json:"kinds"`
	// Epoch is the next epoch to close (== epochs closed so far).
	Epoch       int     `json:"epoch"`
	NextEpsilon float64 `json:"next_epsilon"`
	Exhausted   bool    `json:"exhausted"`
	// FirstSeq/LastSeq bound the buffered release cursors (0 when empty).
	FirstSeq uint64 `json:"first_seq"`
	LastSeq  uint64 `json:"last_seq"`
	// Rows is the dataset cardinality now; Events the mutations applied.
	Rows   int    `json:"rows"`
	Events uint64 `json:"events"`
}

// EpochReleaseWire is one published epoch release.
type EpochReleaseWire struct {
	Seq                uint64    `json:"seq"`
	Epoch              int       `json:"epoch"`
	Events             uint64    `json:"events"`
	Rows               int       `json:"rows"`
	Epsilon            float64   `json:"epsilon"`
	Remaining          float64   `json:"remaining"`
	Histogram          []float64 `json:"histogram,omitempty"`
	CumulativeRaw      []float64 `json:"cumulative_raw,omitempty"`
	CumulativeInferred []float64 `json:"cumulative_inferred,omitempty"`
	RangeAnswers       []float64 `json:"range_answers,omitempty"`
}

// StreamReleasesResponse answers a releases poll: everything buffered past
// the `since` cursor, and the cursor to resume from.
type StreamReleasesResponse struct {
	Releases []EpochReleaseWire `json:"releases"`
	// NextSince is the cursor for the next poll (the last seq returned, or
	// the request's since when nothing new arrived).
	NextSince uint64 `json:"next_since"`
}
