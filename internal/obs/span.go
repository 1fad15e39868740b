package obs

import (
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Pipeline stage names used in spans and stage-labelled metrics, matching
// the paper's module abbreviations (Table 2).
const (
	StageQP    = "QP"    // question processing
	StagePR    = "PR"    // paragraph retrieval
	StagePS    = "PS"    // paragraph scoring
	StagePO    = "PO"    // paragraph ordering
	StageAP    = "AP"    // answer processing
	StageMerge = "MERGE" // answer merging + sorting
)

// SpanContext is the part of a span that travels across the wire: the
// originating question's ID and the parent span's ID. Remote sub-task
// handlers open their spans as children of this context, so a question's
// span tree crosses node boundaries.
type SpanContext struct {
	// QID identifies the originating question (trace ID). Zero means "no
	// question assigned yet"; the serving node mints one.
	QID int64
	// Span is the parent span's ID (zero for a root span).
	Span int64
}

// Span is one completed unit of work attributed to a question.
type Span struct {
	QID    int64     // question/trace ID shared by the whole tree
	ID     int64     // unique span ID
	Parent int64     // parent span ID, 0 for the root
	Name   string    // e.g. "ask", "stage:AP", "pr-subtask"
	Stage  string    // pipeline stage (StageQP...) or "" for non-stage spans
	Node   string    // address/name of the node the work ran on
	Start  time.Time // wall-clock start
	End    time.Time // wall-clock end
}

// Duration is the span's wall-clock duration.
func (s Span) Duration() time.Duration { return s.End.Sub(s.Start) }

// Context returns the context under which children of this span run.
func (s Span) Context() SpanContext { return SpanContext{QID: s.QID, Span: s.ID} }

// idGen generates span and question IDs. It is seeded with the process start
// nanotime so IDs minted by different processes (different cluster nodes) do
// not collide when their spans are merged into one tree.
var idGen atomic.Int64

func init() { idGen.Store(time.Now().UnixNano()) }

// NewID mints a process-unique (and with overwhelming probability
// cluster-unique) ID for spans and questions.
func NewID() int64 { return idGen.Add(1) }

// Recorder collects completed spans in a bounded ring. A nil *Recorder is
// valid and records nothing, so span plumbing needs no conditionals.
type Recorder struct {
	node string
	max  int

	// OnEnd, when non-nil, is invoked for every completed span — the hook
	// live nodes use to feed per-stage latency histograms. Set it before the
	// recorder is shared between goroutines.
	OnEnd func(Span)

	mu    sync.Mutex
	spans []Span
	next  int  // ring write position
	full  bool // ring has wrapped
	// byQID indexes ring positions by question ID so ByQID — called on the
	// response path of every live ask — is O(spans-of-this-question) instead
	// of copying and sorting the whole ring (the 8192-entry default made
	// cache-hit responses slower than cold pipeline runs before this index).
	byQID map[int64][]int
}

// DefaultRecorderCap bounds how many completed spans a recorder retains.
const DefaultRecorderCap = 8192

// NewRecorder creates a recorder stamping spans with the given node name,
// retaining at most max spans (DefaultRecorderCap when max <= 0).
func NewRecorder(node string, max int) *Recorder {
	if max <= 0 {
		max = DefaultRecorderCap
	}
	return &Recorder{
		node:  node,
		max:   max,
		spans: make([]Span, 0, min(max, 256)),
		byQID: make(map[int64][]int),
	}
}

// ActiveSpan is an in-flight span; call End to record it.
type ActiveSpan struct {
	rec  *Recorder
	span Span
}

// StartSpan opens a span under ctx. If ctx.QID is zero a fresh question ID
// is minted, making this span the root of a new trace. Safe on a nil
// recorder (the span is still built and returned, but End records nothing).
func (r *Recorder) StartSpan(name, stage string, ctx SpanContext) *ActiveSpan {
	return &ActiveSpan{rec: r, span: r.open(name, stage, ctx)}
}

// open builds a started span. Keeping it out of StartSpan keeps StartSpan
// small enough to inline, so an ActiveSpan that never leaves its caller
// lives on the caller's stack instead of the heap.
func (r *Recorder) open(name, stage string, ctx SpanContext) Span {
	qid := ctx.QID
	if qid == 0 {
		qid = NewID()
	}
	node := ""
	if r != nil {
		node = r.node
	}
	return Span{
		QID:    qid,
		ID:     NewID(),
		Parent: ctx.Span,
		Name:   name,
		Stage:  stage,
		Node:   node,
		Start:  time.Now(),
	}
}

// Context returns the span's context for propagation to children (local or
// across the wire).
func (a *ActiveSpan) Context() SpanContext { return a.span.Context() }

// End completes the span, records it, and returns the completed record.
func (a *ActiveSpan) End() Span {
	a.span.End = time.Now()
	a.rec.Record(a.span)
	return a.span
}

// Record appends a completed span (used both by End and to adopt remote
// children returned in sub-task responses). No-op on a nil recorder.
func (r *Recorder) Record(s Span) {
	if r == nil {
		return
	}
	if s.Node == "" {
		s.Node = r.node
	}
	r.mu.Lock()
	var pos int
	if r.full {
		r.dropIndexLocked(r.spans[r.next].QID, r.next)
		r.spans[r.next] = s
		pos = r.next
		r.next = (r.next + 1) % r.max
	} else {
		pos = len(r.spans)
		r.spans = append(r.spans, s)
		if len(r.spans) == r.max {
			r.full = true
			r.next = 0
		}
	}
	r.byQID[s.QID] = append(r.byQID[s.QID], pos)
	onEnd := r.OnEnd
	r.mu.Unlock()
	if onEnd != nil {
		onEnd(s)
	}
}

// Snapshot returns the retained spans ordered by start time.
func (r *Recorder) Snapshot() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	out := append([]Span(nil), r.spans...)
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Start.Before(out[j].Start) })
	return out
}

// dropIndexLocked removes one ring position from a question's index bucket
// (called when the ring overwrites that position). Caller holds r.mu.
func (r *Recorder) dropIndexLocked(qid int64, pos int) {
	bucket := r.byQID[qid]
	for i, p := range bucket {
		if p == pos {
			bucket[i] = bucket[len(bucket)-1]
			bucket = bucket[:len(bucket)-1]
			break
		}
	}
	if len(bucket) == 0 {
		delete(r.byQID, qid)
	} else {
		r.byQID[qid] = bucket
	}
}

// ByQID returns the retained spans of one question, ordered by start time.
// It reads through the QID index, touching only that question's spans — this
// runs on the response path of every live ask, where scanning the whole ring
// would dwarf a cache-hit's actual work.
func (r *Recorder) ByQID(qid int64) []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	idx := r.byQID[qid]
	out := make([]Span, 0, len(idx))
	for _, pos := range idx {
		out = append(out, r.spans[pos])
	}
	r.mu.Unlock()
	slices.SortFunc(out, func(a, b Span) int { return a.Start.Compare(b.Start) })
	return out
}

// Len reports how many spans are retained.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.spans)
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
