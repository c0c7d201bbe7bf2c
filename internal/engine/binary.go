// Binary ingest over HTTP: POST /ingest (and /t/{tenant}/ingest) with
// Content-Type application/octet-stream carries runio ingest frames
// instead of the JSON body — the same length-prefixed, CRC-checked
// encoding the checkpoint format and the coordinator's journal speak, so
// an element is encoded exactly once end to end.
//
// A request body holds one or more data frames; the response body is
// binary too: one ack frame covering every element ingested, followed by
// one nack frame when the request stopped early (backpressure, a
// protocol error or a NaN key). A client that sent n frames and reads an
// ack for fewer elements knows exactly which suffix to retry.
package engine

import (
	"cmp"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"opaq/internal/core"
	"opaq/internal/runio"
)

// wireBuffers is the per-request scratch of one binary ingest: pooled on
// the handler so the steady state reuses one payload buffer, one decoded
// batch and one response buffer — zero allocations per element.
type wireBuffers[T cmp.Ordered] struct {
	frames FrameReader[T]
	resp   []byte
}

func (h *handler[T]) getBufs() *wireBuffers[T] {
	if v := h.bufs.Get(); v != nil {
		return v.(*wireBuffers[T])
	}
	return &wireBuffers[T]{}
}

// IsBinaryIngest reports whether an ingest body of this Content-Type
// carries runio frames rather than JSON.
func IsBinaryIngest(contentType string) bool {
	if i := strings.IndexByte(contentType, ';'); i >= 0 {
		contentType = contentType[:i]
	}
	return strings.TrimSpace(contentType) == "application/octet-stream"
}

// FrameReader walks the data frames of a binary ingest body, enforcing
// everything an engine checks before it ingests: framing and checksums,
// data frames only, the codec's kind, a frame tenant (when set) naming
// the route's tenant, and no NaN key. Its buffers are reused across
// frames and bodies, so the walk allocates nothing per element.
type FrameReader[T cmp.Ordered] struct {
	payload []byte
	elems   []T
}

// Next reads one frame from rd and returns its elements, valid until the
// next call. io.EOF marks the clean end of the body; any other error is
// the protocol violation that ends it.
func (f *FrameReader[T]) Next(rd io.Reader, codec runio.Codec[T], route string) ([]T, error) {
	fh, err := runio.ReadFrameHeader(rd, 0)
	if err != nil {
		return nil, err
	}
	if fh.Type != runio.FrameData {
		return nil, fmt.Errorf("frame type %d: only data frames ingest", fh.Type)
	}
	if fh.Kind != codec.Kind() {
		return nil, fmt.Errorf("codec kind %d, engine speaks %d", fh.Kind, codec.Kind())
	}
	if f.payload, err = runio.ReadFramePayload(rd, fh, f.payload); err != nil {
		return nil, err
	}
	tenant, elemBytes, err := runio.SplitDataPayload(f.payload, codec.Size())
	if err != nil {
		return nil, err
	}
	if tenant != "" && tenant != route {
		return nil, fmt.Errorf("frame tenant %q on route tenant %q", tenant, route)
	}
	if f.elems, err = runio.DecodeFrameElems(codec, elemBytes, f.elems[:0]); err != nil {
		return nil, err
	}
	if i := core.IndexNaN(f.elems); i >= 0 {
		return nil, fmt.Errorf("%w: element %d of a frame", core.ErrNaN, i)
	}
	return f.elems, nil
}

// shedNow applies rotate-then-check backpressure against bound: a backlog
// of completed runs below the engine's own seal triggers is sealed first,
// and only unsealable pending state sheds. bound ≤ 0 never sheds.
func shedNow[T cmp.Ordered](eng *Engine[T], bound int64) (bool, error) {
	if bound <= 0 || eng.PendingBytes() < bound {
		return false, nil
	}
	if _, err := eng.Rotate(); err != nil {
		return false, err
	}
	return eng.PendingBytes() >= bound, nil
}

// retrySeconds is the whole-seconds Retry-After hint for a shed ingest,
// adapted to the engine's observed seal cadence (see retryAfterHint).
func retrySeconds[T cmp.Ordered](eng *Engine[T], explicit time.Duration) uint32 {
	iv, ok := eng.SealInterval()
	retry := retryAfterHint(explicit, iv, ok)
	return uint32((retry + time.Second - 1) / time.Second)
}

// ingestBinary handles one application/octet-stream ingest request.
func (h *handler[T]) ingestBinary(eng *Engine[T], w http.ResponseWriter, r *http.Request) {
	if h.codec == nil {
		WriteJSON(w, http.StatusUnsupportedMediaType, map[string]string{
			"error": "binary ingest not enabled: handler has no codec",
		})
		return
	}
	if limit := h.opts.MaxBodyBytes; limit >= 0 {
		if limit == 0 {
			limit = DefaultMaxBodyBytes
		}
		r.Body = http.MaxBytesReader(w, r.Body, limit)
	}
	// The frame tenant, when set, must name the engine the route already
	// resolved — a safety rail against a client streaming one tenant's
	// frames at another tenant's URL.
	route := r.PathValue("tenant")
	if route == "" && h.reg != nil {
		route = DefaultTenant
	}

	bufs := h.getBufs()
	defer h.bufs.Put(bufs)
	var ingested int64
	status := http.StatusOK
	var nackRetry uint32
	var nackMsg string
	for {
		elems, err := bufs.frames.Next(r.Body, h.codec, route)
		if err == io.EOF {
			break
		}
		if err != nil {
			// A frame with a NaN key is rejected whole; earlier frames stay
			// acked.
			status, nackMsg = http.StatusBadRequest, err.Error()
			break
		}
		// Per-frame admission, so a multi-frame body sheds mid-stream with
		// an exact ack for what landed instead of rejecting wholesale.
		shed, err := shedNow(eng, h.opts.MaxPendingBytes)
		if err != nil {
			WriteError(w, err)
			return
		}
		if shed {
			status = http.StatusTooManyRequests
			nackRetry = retrySeconds(eng, h.opts.RetryAfter)
			nackMsg = "ingest backpressure: unsealed bytes over bound"
			break
		}
		if err := eng.IngestBatch(elems); err != nil {
			if !errors.Is(err, ErrBacklogged) {
				WriteError(w, err)
				return
			}
			status = http.StatusTooManyRequests
			nackRetry = retrySeconds(eng, h.opts.RetryAfter)
			nackMsg = err.Error()
			break
		}
		ingested += int64(len(elems))
	}

	bufs.resp = runio.AppendAckFrame(bufs.resp[:0], uint32(ingested), eng.N())
	if status != http.StatusOK {
		bufs.resp = runio.AppendNackFrame(bufs.resp, nackRetry, nackMsg)
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	if status == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", strconv.FormatUint(uint64(nackRetry), 10))
	}
	w.WriteHeader(status)
	w.Write(bufs.resp)
}
