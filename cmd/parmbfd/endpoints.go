package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// endpoint is one route of the serving API. decode reads and validates a
// request against the node count n and returns it typed; serve answers it on
// a worker from the serving snapshot st, fan answers it on the router by
// asking the workers. Both return the response to encode or an *apiError.
// count is what a 200 adds to the /stats queries and batches counters.
type endpoint struct {
	method, path string
	decode       func(r *http.Request, n int) (any, *apiError) // nil: no body or query to read
	serve        func(s *server, ctx context.Context, st *serverState, req any) (any, *apiError)
	fan          func(rt *router, ctx context.Context, req any) (any, *apiError)
	count        func(req any) (queries, batches int64) // nil: counts nothing
}

// endpoints is the serving API, and the one place a route is defined: a
// worker and the router register the same entries, so both accept and
// reject exactly the same requests with the same envelopes, and count the
// same traffic the same way.
var endpoints = []endpoint{
	{method: "GET", path: "/healthz", serve: (*server).serveHealthz, fan: (*router).fanHealthz},
	{method: "GET", path: "/stats", serve: (*server).serveStats, fan: (*router).fanStats},
	{method: "GET", path: "/dist", decode: decodeDist, serve: (*server).serveBatch, fan: (*router).fanBatch, count: countBatch},
	{method: "POST", path: "/batch", decode: decodeBatch, serve: (*server).serveBatch, fan: (*router).fanBatch, count: countBatch},
	{method: "POST", path: "/update", decode: decodeUpdate, serve: (*server).serveUpdate, fan: (*router).fanUpdate},
	{method: "POST", path: "/kmedian", decode: decodeKMedian, serve: (*server).serveKMedian, fan: (*router).fanKMedian, count: countOne},
	{method: "POST", path: "/buyatbulk", decode: decodeBuyAtBulk, serve: (*server).serveBuyAtBulk, fan: roundRobin("/buyatbulk"), count: countOne},
	{method: "POST", path: "/route", decode: decodeRoute, serve: (*server).serveRoute, fan: roundRobin("/route"), count: countRoute},
}

func countOne(any) (int64, int64) { return 1, 0 }

// newMux registers every entry of the table for a worker (s) or the router.
func newMux(s *server, rt *router) *http.ServeMux {
	mux := http.NewServeMux()
	for _, e := range endpoints {
		mux.HandleFunc(e.method+" "+e.path, e.handler(s, rt))
	}
	return mux
}

// handler is the one request path of every route, on a worker (s != nil)
// and on the router alike. It caps the body, runs the entry's decode step,
// then serve or fan under the request's context, and writes the answer or
// the error envelope; a panic becomes a 500 internal. Only a 200 moves the
// queries/batches counters.
func (e endpoint) handler(s *server, rt *router) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if p := recover(); p != nil {
				fmt.Fprintf(os.Stderr, "%s %s: panic: %v\n%s", r.Method, r.URL.Path, p, debug.Stack())
				writeError(w, http.StatusInternalServerError, errInternal, fmt.Sprint("panic: ", p), nil)
			}
		}()
		var (
			st               *serverState
			n                int
			queries, batches *atomic.Int64
			req, resp        any
			aerr             *apiError
		)
		if s != nil {
			st = s.state.Load()
			n, queries, batches = st.n, &s.queries, &s.batches
		} else {
			n, queries, batches = rt.n, &rt.queries, &rt.batches
		}
		if e.decode != nil {
			r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
			req, aerr = e.decode(r, n)
		}
		switch {
		case aerr != nil:
		case s != nil:
			resp, aerr = e.serve(s, r.Context(), st, req)
		default:
			resp, aerr = e.fan(rt, r.Context(), req)
		}
		if aerr != nil {
			writeError(w, aerr.status, aerr.Code, aerr.Message, aerr.Details)
			return
		}
		status := http.StatusOK
		switch rp := resp.(type) {
		case *reply:
			status = rp.status
		case *batchResponse:
			defer rp.release()
		}
		buf := jsonBufs.Get().(*bytes.Buffer)
		defer jsonBufs.Put(buf)
		if status = encodeJSON(buf, status, resp); status == http.StatusOK && e.count != nil {
			q, b := e.count(req)
			queries.Add(q)
			batches.Add(b)
		}
		writeBody(w, status, buf)
	}
}

// Error codes of the structured error schema. Every non-200 response body is
//
//	{"error": {"code": <one of these>, "message": <human text>,
//	           "details": <code-specific object, may be absent>}}
//
// so clients branch on a stable machine-readable code instead of matching
// message prose.
const (
	errBadJSON             = "bad_json"
	errEmptyPairs          = "empty_pairs"
	errBatchTooLarge       = "batch_too_large"
	errBodyTooLarge        = "body_too_large"
	errPairOutOfRange      = "pair_out_of_range"
	errBadStat             = "bad_stat"
	errBadNode             = "bad_node"
	errBadTreeRange        = "bad_tree_range"
	errBadEdit             = "bad_edit"
	errUpdateUnsupported   = "update_unsupported"
	errOverloaded          = "overloaded"
	errUpstreamUnavailable = "upstream_unavailable"
	errBadScenario         = "bad_scenario"
	errScenarioUnavailable = "scenario_unavailable"
	errInternal            = "internal"
)

// apiError is a rejected request: the HTTP status and the envelope's body.
type apiError struct {
	status  int
	Code    string         `json:"code"`
	Message string         `json:"message"`
	Details map[string]any `json:"details,omitempty"`
}

type errorResponse struct {
	Error apiError `json:"error"`
}

func reject(status int, code, msg string, details map[string]any) *apiError {
	return &apiError{status: status, Code: code, Message: msg, Details: details}
}

// decodeJSON decodes the request body into v. A body that tripped the
// wrapper's http.MaxBytesReader is a 413 with its own code (the client must
// shrink the request, not fix its syntax); anything else is a 400 bad_json.
func decodeJSON(r *http.Request, v any) *apiError {
	err := json.NewDecoder(r.Body).Decode(v)
	if err == nil {
		return nil
	}
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		return reject(http.StatusRequestEntityTooLarge, errBodyTooLarge,
			fmt.Sprintf("request body exceeds %d bytes", tooLarge.Limit),
			map[string]any{"maxBytes": tooLarge.Limit})
	}
	return reject(http.StatusBadRequest, errBadJSON, "bad JSON: "+err.Error(), nil)
}

// overCap is the 413 of a list of got items against its cap max (nil when
// it fits); what is the message format, with verbs for got and max.
func overCap(what string, got, max int) *apiError {
	if got <= max {
		return nil
	}
	return reject(http.StatusRequestEntityTooLarge, errBatchTooLarge,
		fmt.Sprintf(what, got, max), map[string]any{"max": max, "got": got})
}

// inRange checks a wire node id against n on the int64 value, before any
// narrowing to graph.Node, so an id such as 2^32 cannot wrap onto node 0.
func inRange(id int64, n int) bool { return id >= 0 && id < int64(n) }

var jsonBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// encodeJSON encodes v into buf before any header is written, so a value
// that cannot be encoded (a NaN or an infinity) becomes a structured 500
// instead of a 200 with an empty body. It returns the status to write.
func encodeJSON(buf *bytes.Buffer, code int, v any) int {
	buf.Reset()
	if err := json.NewEncoder(buf).Encode(v); err != nil {
		buf.Reset()
		code = http.StatusInternalServerError
		_ = json.NewEncoder(buf).Encode(errorResponse{Error: apiError{Code: errInternal, Message: "encoding the response: " + err.Error()}})
	}
	return code
}

func writeBody(w http.ResponseWriter, code int, buf *bytes.Buffer) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_, _ = w.Write(buf.Bytes())
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	buf := jsonBufs.Get().(*bytes.Buffer)
	defer jsonBufs.Put(buf)
	writeBody(w, encodeJSON(buf, code, v), buf)
}

func writeError(w http.ResponseWriter, status int, code, msg string, details map[string]any) {
	writeJSON(w, status, errorResponse{Error: apiError{Code: code, Message: msg, Details: details}})
}
