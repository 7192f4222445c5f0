package obs

// envelope.go holds the JSON error envelope for requests no route
// matches, shared by cfserve and cfgate so both tiers answer an unknown
// path or a wrong method with the same body every other error uses.

import (
	"encoding/json"
	"net/http"
	"strings"
)

// JSONErrorWriter wraps w so an http.ServeMux's built-in plain-text
// 404/405 bodies come out as the {"error": "..."} envelope, preserving
// the status and the 405's Allow header. Use it only for requests the
// mux has no pattern for.
func JSONErrorWriter(w http.ResponseWriter) http.ResponseWriter {
	return &jsonErrorRewriter{w: w}
}

type jsonErrorRewriter struct {
	w     http.ResponseWriter
	wrote bool
}

func (j *jsonErrorRewriter) Header() http.Header { return j.w.Header() }

func (j *jsonErrorRewriter) WriteHeader(status int) {
	j.w.Header().Set("Content-Type", "application/json")
	j.w.WriteHeader(status)
}

func (j *jsonErrorRewriter) Write(p []byte) (int, error) {
	if !j.wrote {
		j.wrote = true
		body, err := json.Marshal(map[string]string{"error": strings.TrimSpace(string(p))})
		if err != nil {
			return 0, err
		}
		if _, err := j.w.Write(append(body, '\n')); err != nil {
			return 0, err
		}
	}
	// Report the caller's bytes as consumed either way: the envelope
	// replaces the text body rather than appending to it.
	return len(p), nil
}
