package serve

import (
	"bytes"
	"testing"

	"github.com/ata-pattern/ataqc/internal/faultinject"
)

// FuzzParseRequest feeds arbitrary bodies to the compile request decoder:
// each must either build a request whose problem fits its device, or be
// rejected with an error classify maps to a 4xx status. It never panics.
func FuzzParseRequest(f *testing.F) {
	for _, seed := range []string{
		faultinject.MalformedJSONBody,
		faultinject.UnknownFieldBody,
		`{"arch":"grid","edges":[[0,1],[1,2],[2,3]]}`,
		`{"arch":"heavy-hex","n":20,"edges":[[0,1]],"strategy":"greedy","alpha":0.3,"timeoutMs":5,"maxNodes":10,"workers":2,"includeQasm":true}`,
		`{"arch":"custom","n":3,"couplings":[[0,1],[1,2]],"edges":[[0,2]],"noise":true,"noiseSeed":7}`,
		`{"arch":"line","edges":[[0,0]]}`,
		`{"arch":"grid","edges":[[0,1]]} {}`,
		`{"arch":"mumbai","edges":[[0,1]],"chaos":"sleep:1ms"}`,
		`[]`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		req, dev, prob, _, err := parseRequest(bytes.NewReader(body), 64)
		if err != nil {
			if ae := classify(err); ae.Status < 400 || ae.Status > 499 {
				t.Fatalf("body %q: %v maps to status %d, want 4xx", body, err, ae.Status)
			}
			return
		}
		if req == nil || dev == nil || prob == nil {
			t.Fatalf("body %q: accepted without a request, device and problem", body)
		}
		if prob.Qubits() > dev.Qubits() {
			t.Fatalf("body %q: %d-qubit problem accepted for a %d-qubit device", body, prob.Qubits(), dev.Qubits())
		}
	})
}
