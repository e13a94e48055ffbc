package main

import (
	"bufio"
	"context"
	"fmt"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/blob"
	"repro/internal/server/wire"
)

// Op kinds a span is attributed to.
const (
	kindRead  = "read"
	kindWrite = "write"
	kindOther = "other"
)

// Span is one timed call across a layer boundary.
type Span struct {
	Layer string // client, server, cache, shard, core or workload
	Op    string // the call, e.g. "open", "commit", "GET"
	Kind  string // kindRead, kindWrite or kindOther
	Start int64  // ns since the tracer's epoch
	End   int64
	// Parent is the index of the enclosing span, or -1 for a root.
	Parent int32
	Req    int64 // request id shared by every span of one request
}

// request is one traced client op (served workloads) or one executor
// phase (simulation). Spans of one request nest on a stack: each layer
// wrapper's call runs inside its caller's.
type request struct {
	id    int64
	kind  string // "" lets each span take its own op's kind
	stack []int32
}

// Tracer keeps every span in memory until the run ends. It is safe for
// concurrent use; one mutex orders all recording, which is part of the
// tracing overhead the traced run reports.
type Tracer struct {
	epoch time.Time

	mu      sync.Mutex
	spans   []Span
	byKey   map[string]*request // in-flight client requests by object key
	nextReq int64
}

// NewTracer returns an empty tracer whose clock starts now.
func NewTracer() *Tracer {
	return &Tracer{epoch: time.Now(), byKey: make(map[string]*request)}
}

func (t *Tracer) now() int64 { return int64(time.Since(t.epoch)) }

// Spans returns the recorded spans. Call once recording has stopped.
func (t *Tracer) Spans() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans
}

// newRequest allocates a request; key, when non-empty, registers it so
// the server-side wrapper can join the handler span to it. Each client
// owns its key partition and has one op in flight, so the key is unique
// among in-flight requests.
func (t *Tracer) newRequest(key, kind string) *request {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextReq++
	r := &request{id: t.nextReq, kind: kind}
	if key != "" {
		t.byKey[key] = r
	}
	return r
}

// finishRequest unregisters key's in-flight request.
func (t *Tracer) finishRequest(key string) {
	t.mu.Lock()
	delete(t.byKey, key)
	t.mu.Unlock()
}

// requestFor returns key's in-flight client request, or nil for
// traffic no client span opened (set-up and warm-up).
func (t *Tracer) requestFor(key string) *request {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.byKey[key]
}

// begin opens a span of req as a child of req's innermost open span.
func (t *Tracer) begin(req *request, layer, op, kind string) int32 {
	if req.kind != "" {
		kind = req.kind
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	parent := int32(-1)
	if n := len(req.stack); n > 0 {
		parent = req.stack[n-1]
	}
	idx := int32(len(t.spans))
	t.spans = append(t.spans, Span{Layer: layer, Op: op, Kind: kind,
		Start: t.now(), Parent: parent, Req: req.id})
	req.stack = append(req.stack, idx)
	return idx
}

// end closes span idx. A client can finish reading a response before the
// handler wrapper returns, so spans may close out of stack order.
func (t *Tracer) end(req *request, idx int32) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[idx].End = t.now()
	for i := len(req.stack) - 1; i >= 0; i-- {
		if req.stack[i] == idx {
			req.stack = append(req.stack[:i], req.stack[i+1:]...)
			break
		}
	}
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval covered by the union of its children's intervals
// (clipped to the parent). Overlapping children are counted once.
func selfTimes(spans []Span) []int64 {
	children := make(map[int32][]int32)
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], int32(i))
		}
	}
	self := make([]int64, len(spans))
	type iv struct{ lo, hi int64 }
	var ivs []iv
	for i, s := range spans {
		self[i] = s.End - s.Start
		kids := children[int32(i)]
		if len(kids) == 0 {
			continue
		}
		ivs = ivs[:0]
		for _, k := range kids {
			lo, hi := max(spans[k].Start, s.Start), min(spans[k].End, s.End)
			if hi > lo {
				ivs = append(ivs, iv{lo, hi})
			}
		}
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
		var covered, curLo, curHi int64
		for j, v := range ivs {
			switch {
			case j == 0:
				curLo, curHi = v.lo, v.hi
			case v.lo > curHi:
				covered += curHi - curLo
				curLo, curHi = v.lo, v.hi
			case v.hi > curHi:
				curHi = v.hi
			}
		}
		if len(ivs) > 0 {
			covered += curHi - curLo
		}
		self[i] -= covered
	}
	return self
}

// maxTraceEvents caps the events one trace file holds (about 150 bytes
// each); the per-layer metrics always use every span.
const maxTraceEvents = 200_000

// writeChromeTrace writes spans as Chrome trace-event JSON (one complete
// "X" event per span, one row per request), the first maxTraceEvents of
// them, noting the total in otherData.
func writeChromeTrace(path string, spans []Span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprintf(w, "{\"displayTimeUnit\":\"ns\",\"otherData\":{\"spans\":%d,\"written\":%d},\"traceEvents\":[\n",
		len(spans), min(len(spans), maxTraceEvents))
	var b []byte
	for i, s := range spans[:min(len(spans), maxTraceEvents)] {
		b = b[:0]
		if i > 0 {
			b = append(b, ",\n"...)
		}
		b = append(b, `{"name":"`...)
		b = append(b, s.Layer...)
		b = append(b, '.')
		b = append(b, s.Op...)
		b = append(b, `","cat":"`...)
		b = append(b, s.Layer...)
		b = append(b, `","ph":"X","pid":1,"tid":`...)
		b = strconv.AppendInt(b, s.Req, 10)
		b = append(b, `,"ts":`...)
		b = strconv.AppendFloat(b, float64(s.Start)/1e3, 'f', 3, 64)
		b = append(b, `,"dur":`...)
		b = strconv.AppendFloat(b, float64(s.End-s.Start)/1e3, 'f', 3, 64)
		b = append(b, `,"args":{"span":`...)
		b = strconv.AppendInt(b, int64(i), 10)
		b = append(b, `,"parent":`...)
		b = strconv.AppendInt(b, int64(s.Parent), 10)
		b = append(b, `,"kind":"`...)
		b = append(b, s.Kind...)
		b = append(b, `"}}`...)
		w.Write(b)
	}
	w.WriteString("\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// --- layer wrappers ---------------------------------------------------

type ctxKey struct{}

func withRequest(ctx context.Context, r *request) context.Context {
	return context.WithValue(ctx, ctxKey{}, r)
}

func requestOf(ctx context.Context) *request {
	r, _ := ctx.Value(ctxKey{}).(*request)
	return r
}

// tracedHandler records a "server" span around every blob request the
// server handles, joined by key to the client span that sent it, and
// counts admission sheds (429/503).
type tracedHandler struct {
	t    *Tracer
	next http.Handler
	shed atomic.Int64
}

func (h *tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	key, ok := strings.CutPrefix(r.URL.Path, wire.PathBlobs)
	if !ok {
		h.next.ServeHTTP(w, r)
		return
	}
	req := h.t.requestFor(key)
	if req == nil {
		h.next.ServeHTTP(w, r)
		return
	}
	sp := h.t.begin(req, "server", r.Method, kindOther)
	sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
	h.next.ServeHTTP(sw, r.WithContext(withRequest(r.Context(), req)))
	h.t.end(req, sp)
	if sw.status == http.StatusTooManyRequests || sw.status == http.StatusServiceUnavailable {
		h.shed.Add(1)
	}
}

type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// tracedStore records a span named after its layer around every call
// into the store it wraps; readers and writers it returns do the same.
// Calls whose context carries no traced request pass through untimed.
type tracedStore struct {
	blob.Store
	t     *Tracer
	layer string
	// opens and ops count traced Open calls and all traced Open, Create,
	// Replace and Delete calls.
	opens, ops atomic.Int64
}

func (s *tracedStore) Open(ctx context.Context, key string) (blob.Reader, error) {
	req := requestOf(ctx)
	if req == nil {
		return s.Store.Open(ctx, key)
	}
	s.opens.Add(1)
	s.ops.Add(1)
	sp := s.t.begin(req, s.layer, "open", kindRead)
	r, err := s.Store.Open(ctx, key)
	s.t.end(req, sp)
	if err != nil {
		return nil, err
	}
	return &tracedReader{Reader: r, s: s, req: req}, nil
}

func (s *tracedStore) Create(ctx context.Context, key string, size int64) (blob.Writer, error) {
	return s.write(ctx, "create", key, size, s.Store.Create)
}

func (s *tracedStore) Replace(ctx context.Context, key string, size int64) (blob.Writer, error) {
	return s.write(ctx, "replace", key, size, s.Store.Replace)
}

func (s *tracedStore) write(ctx context.Context, op, key string, size int64,
	open func(context.Context, string, int64) (blob.Writer, error)) (blob.Writer, error) {
	req := requestOf(ctx)
	if req == nil {
		return open(ctx, key, size)
	}
	s.ops.Add(1)
	sp := s.t.begin(req, s.layer, op, kindWrite)
	w, err := open(ctx, key, size)
	s.t.end(req, sp)
	if err != nil {
		return nil, err
	}
	return &tracedWriter{Writer: w, s: s, req: req}, nil
}

func (s *tracedStore) Delete(ctx context.Context, key string) error {
	req := requestOf(ctx)
	if req == nil {
		return s.Store.Delete(ctx, key)
	}
	s.ops.Add(1)
	sp := s.t.begin(req, s.layer, "delete", kindWrite)
	defer s.t.end(req, sp)
	return s.Store.Delete(ctx, key)
}

func (s *tracedStore) Stat(ctx context.Context, key string) (blob.Info, error) {
	req := requestOf(ctx)
	if req == nil {
		return s.Store.Stat(ctx, key)
	}
	sp := s.t.begin(req, s.layer, "stat", kindOther)
	defer s.t.end(req, sp)
	return s.Store.Stat(ctx, key)
}

type tracedReader struct {
	blob.Reader
	s   *tracedStore
	req *request
}

func (r *tracedReader) ReadAll() ([]byte, error) {
	sp := r.s.t.begin(r.req, r.s.layer, "readall", kindRead)
	defer r.s.t.end(r.req, sp)
	return r.Reader.ReadAll()
}

func (r *tracedReader) ReadAt(off, length int64) ([]byte, error) {
	sp := r.s.t.begin(r.req, r.s.layer, "readat", kindRead)
	defer r.s.t.end(r.req, sp)
	return r.Reader.ReadAt(off, length)
}

func (r *tracedReader) Close() error {
	sp := r.s.t.begin(r.req, r.s.layer, "close", kindRead)
	defer r.s.t.end(r.req, sp)
	return r.Reader.Close()
}

type tracedWriter struct {
	blob.Writer
	s   *tracedStore
	req *request
}

func (w *tracedWriter) Append(n int64, data []byte) error {
	sp := w.s.t.begin(w.req, w.s.layer, "append", kindWrite)
	defer w.s.t.end(w.req, sp)
	return w.Writer.Append(n, data)
}

func (w *tracedWriter) Write(p []byte) (int, error) {
	if err := w.Append(int64(len(p)), p); err != nil {
		return 0, err
	}
	return len(p), nil
}

func (w *tracedWriter) Commit() error {
	sp := w.s.t.begin(w.req, w.s.layer, "commit", kindWrite)
	defer w.s.t.end(w.req, sp)
	return w.Writer.Commit()
}

func (w *tracedWriter) Abort() error {
	sp := w.s.t.begin(w.req, w.s.layer, "abort", kindWrite)
	defer w.s.t.end(w.req, sp)
	return w.Writer.Abort()
}
