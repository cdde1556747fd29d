package fl

import (
	"errors"
	"io"
	"math"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"

	"fedforecaster/internal/fl/codec"
)

// mirrorClient echoes every request's payload back unchanged, so a
// call observes two wire crossings (request and response) of the same
// message.
type mirrorClient struct{}

func (mirrorClient) Properties(req Message) (Message, error) { return req, nil }
func (mirrorClient) Fit(req Message) (Message, error)        { return req, nil }
func (mirrorClient) Evaluate(req Message) (Message, error)   { return req, nil }

// wireFixtures are the matrix test messages. Float vectors are either
// shorter than the quantization floor (shipped dense) or long, finite
// and within binary16 range (always eligible for both lossy tiers),
// so expected behaviour per tier is unambiguous.
func wireFixtures() []Message {
	plain := Message{} // zero value: nil maps everywhere

	props := NewMessage("props/metafeatures")
	props.Scalars["rate"] = 2
	props.Scalars["skewness"] = -0.75
	props.Strings["name"] = "client-0"
	props.Ints["sig_lags"] = []int{1, 7, 14}
	props.Floats["season_strengths"] = []float64{0.25, 0.5} // short: dense (values binary16-exact)

	fit := NewMessage("fit/final")
	w := make([]float64, 32)
	for i := range w {
		w[i] = math.Cos(float64(i)) * 12.5
	}
	fit.Floats["weights"] = w
	fit.Ints["keep"] = nil
	fit.Floats["empty"] = []float64{}

	return []Message{plain, props, fit}
}

// equalWireMessages compares messages with NaN-tolerant float
// equality (the fl-side twin of the codec package's helper).
func equalWireMessages(a, b Message) bool {
	if a.Kind != b.Kind || len(a.Scalars) != len(b.Scalars) || len(a.Floats) != len(b.Floats) {
		return false
	}
	for k, av := range a.Scalars {
		bv, ok := b.Scalars[k]
		if !ok || math.Float64bits(av) != math.Float64bits(bv) {
			return false
		}
	}
	for k, av := range a.Floats {
		bv, ok := b.Floats[k]
		if !ok || len(av) != len(bv) || (av == nil) != (bv == nil) {
			return false
		}
		for i := range av {
			if math.Float64bits(av[i]) != math.Float64bits(bv[i]) {
				return false
			}
		}
	}
	return reflect.DeepEqual(a.Strings, b.Strings) && reflect.DeepEqual(a.Ints, b.Ints)
}

// canonicalMessage returns a copy of m in the form every transport
// delivers: nil payload maps become empty maps, and zero-length slice
// values become nil under their (surviving) key.
func canonicalMessage(m Message) Message {
	out := NewMessage(m.Kind)
	for k, v := range m.Scalars {
		out.Scalars[k] = v
	}
	for k, v := range m.Floats {
		if len(v) == 0 {
			v = nil
		}
		out.Floats[k] = v
	}
	for k, v := range m.Strings {
		out.Strings[k] = v
	}
	for k, v := range m.Ints {
		if len(v) == 0 {
			v = nil
		}
		out.Ints[k] = v
	}
	return out
}

// wireMatrixOpts enumerates the codec dimension of the matrix. The
// zero value is lossless v1, like an explicit Version 1.
func wireMatrixOpts() map[string]WireOpts {
	return map[string]WireOpts{
		"zero-value": {},
		"binary-v1":  {Version: codec.Version1},
		"v1+q8":      {Version: codec.Version1, Quant: codec.QuantInt8},
		"v1+q16":     {Version: codec.Version1, Quant: codec.QuantFloat16},
	}
}

// checkWireResponse asserts a mirrored fixture against its tier's
// contract: exact identity for lossless tiers, same shape with
// bounded per-element error for quantized ones. The bound is doubled:
// the payload crosses the wire twice (request, response), and while
// both lossy maps are idempotent up to float64 rounding, the matrix
// test does not rely on that.
func checkWireResponse(t *testing.T, label string, sent, got Message, w WireOpts) {
	t.Helper()
	want := canonicalMessage(sent)
	if w.Quant == codec.QuantNone {
		if !equalWireMessages(want, got) {
			t.Errorf("%s: lossless response diverged\nwant %#v\ngot  %#v", label, want, got)
		}
		return
	}
	gotShape := got
	gotShape.Floats = want.Floats
	gotShape.Scalars = want.Scalars
	if !equalWireMessages(want, gotShape) {
		t.Errorf("%s: non-float sections diverged\nwant %#v\ngot  %#v", label, want, gotShape)
	}
	if len(got.Scalars) != len(want.Scalars) {
		t.Fatalf("%s: scalar keys lost", label)
	}
	// Scalars travel dense under every tier: the lossy tiers round them
	// to binary16, so the float16 bound applies.
	f16Bound := func(x float64) float64 {
		return math.Max(math.Abs(x)*codec.Float16RelError, codec.Float16SubnormalAbsError)
	}
	for k, wv := range want.Scalars {
		gv, ok := got.Scalars[k]
		if !ok {
			t.Fatalf("%s: scalar %q lost", label, k)
		}
		if diff := math.Abs(gv - wv); !(diff <= 2*f16Bound(wv)) {
			t.Errorf("%s: scalar %q error %g exceeds bound %g", label, k, diff, 2*f16Bound(wv))
		}
	}
	for k, wv := range want.Floats {
		gv, ok := got.Floats[k]
		if !ok || len(gv) != len(wv) {
			t.Fatalf("%s: float key %q lost or resized", label, k)
		}
		if len(wv) < 8 { // below the quantization floor: dense, binary16-rounded
			for i := range wv {
				if diff := math.Abs(gv[i] - wv[i]); !(diff <= 2*f16Bound(wv[i])) {
					t.Errorf("%s: short vector %q[%d] error %g exceeds bound", label, k, i, diff)
				}
			}
			continue
		}
		lo, hi := wv[0], wv[0]
		for _, x := range wv {
			lo, hi = math.Min(lo, x), math.Max(hi, x)
		}
		for i := range wv {
			var bound float64
			if w.Quant == codec.QuantInt8 {
				bound = codec.Int8RangeError*(hi-lo) + codec.Float16SubnormalAbsError
			} else {
				bound = f16Bound(wv[i])
			}
			bound = 2*bound + 1e-9*math.Max(math.Abs(lo), math.Abs(hi))
			if diff := math.Abs(gv[i] - wv[i]); !(diff <= bound) {
				t.Errorf("%s: %q[%d] error %g exceeds bound %g", label, k, i, diff, bound)
			}
		}
	}
}

// startWireTCP brings up a one-client TCP transport where both ends
// speak the given wire options, returning the transport and a cleanup.
func startWireTCP(t *testing.T, server, client WireOpts) *TCPTransport {
	t.Helper()
	type listenResult struct {
		tr  *TCPTransport
		err error
	}
	addrCh := make(chan string, 1)
	resCh := make(chan listenResult, 1)
	go func() {
		tr, err := ListenTCPWire("127.0.0.1:0", 1, 5*time.Second, addrCh, server)
		resCh <- listenResult{tr, err}
	}()
	addr := <-addrCh
	stop := make(chan struct{})
	go func() { _ = ServeTCPWire(addr, mirrorClient{}, stop, client) }()
	res := <-resCh
	if res.err != nil {
		close(stop)
		t.Fatal(res.err)
	}
	t.Cleanup(func() {
		close(stop)
		//lint:allow errdrop test teardown
		res.tr.Close()
	})
	return res.tr
}

// TestWireMatrixEquivalence drives every fixture through
// {inproc, TCP} × {zero-value, binary-v1, v1+q8, v1+q16} and asserts
// the same canonical result in every cell — the nil-vs-empty parity
// guarantee extended across wire tiers.
func TestWireMatrixEquivalence(t *testing.T) {
	for name, w := range wireMatrixOpts() {
		transports := map[string]Transport{
			"inproc": NewInProcWire([]Client{mirrorClient{}}, w),
			"tcp":    startWireTCP(t, w, w),
		}
		for tname, tr := range transports {
			for fi, fixture := range wireFixtures() {
				got, err := tr.Call(0, fixture)
				if err != nil {
					t.Fatalf("%s/%s fixture %d: %v", name, tname, fi, err)
				}
				checkWireResponse(t, name+"/"+tname, fixture, got, w)
			}
		}
	}
}

// TestWireMatrixCrossTransportAgreement: for each wire format, the
// in-process and TCP transports return byte-identical canonical
// responses for lossless tiers and identical quantized values for
// lossy ones (both ends quantize through the same codec).
func TestWireMatrixCrossTransportAgreement(t *testing.T) {
	for name, w := range wireMatrixOpts() {
		inproc := NewInProcWire([]Client{mirrorClient{}}, w)
		tcp := startWireTCP(t, w, w)
		for fi, fixture := range wireFixtures() {
			a, err := inproc.Call(0, fixture)
			if err != nil {
				t.Fatalf("%s inproc fixture %d: %v", name, fi, err)
			}
			b, err := tcp.Call(0, fixture)
			if err != nil {
				t.Fatalf("%s tcp fixture %d: %v", name, fi, err)
			}
			if !equalWireMessages(a, b) {
				t.Errorf("%s fixture %d: transports disagree\ninproc %#v\ntcp    %#v", name, fi, a, b)
			}
		}
	}
}

// TestWireMixedVersions: endpoints with differing tiers, or with the
// zero-value Version on one side, all settle on v1 and complete calls
// correctly.
func TestWireMixedVersions(t *testing.T) {
	zero := WireOpts{}
	v1 := WireOpts{Version: codec.Version1}
	v1q := WireOpts{Version: codec.Version1, Quant: codec.QuantInt8}
	cases := []struct {
		name           string
		server, client WireOpts
	}{
		{"v1-server/zero-client", v1, zero},
		{"zero-server/v1-client", zero, v1},
		{"v1q-server/v1-client", v1q, v1},
		{"v1-server/v1q-client", v1, v1q},
	}
	fixture := wireFixtures()[1]
	want := canonicalMessage(fixture)
	for _, c := range cases {
		tr := startWireTCP(t, c.server, c.client)
		got, err := tr.Call(0, fixture)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		// Every pairing here is lossless for this fixture (its only
		// vector is below the quantization floor).
		if !equalWireMessages(want, got) {
			t.Errorf("%s: response diverged\nwant %#v\ngot  %#v", c.name, want, got)
		}
	}
}

// TestWireV0HandshakeRejected: a peer proposing the retired gob wire
// (version 0) is rejected promptly — an error naming wire v0, not a
// gob stream or a call timeout — on whichever end meets it.
func TestWireV0HandshakeRejected(t *testing.T) {
	const prompt = 5 * time.Second // well below the 30s call timeout

	t.Run("server", func(t *testing.T) {
		addrCh := make(chan string, 1)
		type listenResult struct {
			tr  *TCPTransport
			err error
		}
		resCh := make(chan listenResult, 1)
		go func() {
			tr, err := ListenTCPWire("127.0.0.1:0", 1, 5*time.Second, addrCh, WireOpts{})
			resCh <- listenResult{tr, err}
		}()
		conn, err := net.Dial("tcp", <-addrCh)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		res := <-resCh
		if res.err != nil {
			t.Fatal(res.err)
		}
		defer res.tr.Close()
		res.tr.SetCallTimeout(30 * time.Second)
		if _, err := conn.Write([]byte{0}); err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		_, err = res.tr.Call(0, NewMessage("props/range"))
		if err == nil || !strings.Contains(err.Error(), "wire v0") {
			t.Fatalf("v0 proposal: err = %v, want an error naming wire v0", err)
		}
		if !errors.Is(err, ErrClientDead) || errors.Is(err, ErrCallTimeout) {
			t.Errorf("v0 proposal: err = %v, want ErrClientDead without ErrCallTimeout", err)
		}
		if d := time.Since(start); d > prompt {
			t.Errorf("v0 rejection took %v", d)
		}
		// The peer hears v1 (so a gob-era client fails its own
		// handshake), then the connection closes.
		if err := conn.SetDeadline(time.Now().Add(prompt)); err != nil {
			t.Fatal(err)
		}
		reply, err := io.ReadAll(conn)
		if err != nil || len(reply) != 1 || reply[0] != codec.Version1 {
			t.Errorf("peer read %x (err %v), want the single byte %02x then EOF", reply, err, codec.Version1)
		}
	})

	t.Run("client", func(t *testing.T) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		serveErr := make(chan error, 1)
		stop := make(chan struct{})
		defer close(stop)
		go func() { serveErr <- ServeTCPWire(ln.Addr().String(), mirrorClient{}, stop, WireOpts{}) }()
		conn, err := ln.Accept()
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		var proposal [1]byte
		if _, err := io.ReadFull(conn, proposal[:]); err != nil {
			t.Fatal(err)
		}
		if proposal[0] != codec.Version1 {
			t.Errorf("client proposed version %d, want %d", proposal[0], codec.Version1)
		}
		if _, err := conn.Write([]byte{0}); err != nil {
			t.Fatal(err)
		}
		select {
		case err := <-serveErr:
			if err == nil || !strings.Contains(err.Error(), "wire v0") {
				t.Errorf("v0 server: ServeTCPWire = %v, want an error naming wire v0", err)
			}
		case <-time.After(prompt):
			t.Fatal("ServeTCPWire did not reject a v0 server promptly")
		}
	})
}

// TestParseWireOpts covers the -wire flag syntax round trip, and
// rejects the retired gob/v0 spellings and the +z DEFLATE tier.
func TestParseWireOpts(t *testing.T) {
	good := map[string]WireOpts{
		"v1":     {Version: 1},
		"v1+q8":  {Version: 1, Quant: codec.QuantInt8},
		"v1+q16": {Version: 1, Quant: codec.QuantFloat16},
	}
	for s, want := range good {
		got, err := ParseWireOpts(s)
		if err != nil {
			t.Errorf("ParseWireOpts(%q): %v", s, err)
			continue
		}
		if got != want {
			t.Errorf("ParseWireOpts(%q) = %+v, want %+v", s, got, want)
		}
		if got.String() != s {
			t.Errorf("ParseWireOpts(%q).String() = %q", s, got.String())
		}
	}
	if got := (WireOpts{}).String(); got != "v1" {
		t.Errorf("zero WireOpts renders %q, want v1", got)
	}
	for _, s := range []string{"", "v2", "v1+q7", "v1+", "q8",
		"gob", "v0", "gob+z", "v1+z", "v1+q8+z", "v1+q16+z"} {
		if _, err := ParseWireOpts(s); err == nil {
			t.Errorf("ParseWireOpts(%q) accepted invalid input", s)
		}
	}
}

// wirelessTransport hides an inner transport's Wire method, modelling
// a transport that does not report its format.
type wirelessTransport struct{ Transport }

// TestWireAccounting: a server bills the exact encoded frame bytes of
// its transport's tier, and a transport that does not report its
// format is billed at lossless v1.
func TestWireAccounting(t *testing.T) {
	req := wireFixtures()[1]
	for name, w := range wireMatrixOpts() {
		srv := NewServer(NewInProcWire([]Client{mirrorClient{}, mirrorClient{}}, w))
		resps, err := srv.Broadcast(req)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		wantDown := 2 * w.Size(req)
		var wantUp int64
		for _, r := range resps {
			wantUp += w.Size(r)
		}
		if exact := int64(codec.EncodedSize(req, codec.Options{Quant: w.Quant})); w.Size(req) != exact {
			t.Errorf("%s: Size != EncodedSize (%d != %d)", name, w.Size(req), exact)
		}
		st := srv.Stats()
		if st.BytesDown != wantDown || st.BytesUp != wantUp {
			t.Errorf("%s: stats down/up = %d/%d, want %d/%d", name, st.BytesDown, st.BytesUp, wantDown, wantUp)
		}
	}
	srv := NewServer(wirelessTransport{NewInProcWire([]Client{mirrorClient{}}, WireOpts{})})
	if _, err := srv.Call(0, req); err != nil {
		t.Fatal(err)
	}
	if got, want := srv.Stats().BytesDown, int64(codec.EncodedSize(req, codec.Options{})); got != want {
		t.Errorf("Wire-less transport billed %d bytes down, want lossless v1 %d", got, want)
	}
}

// TestChaosWireDelegation: wrapping a wire-aware transport in chaos
// keeps the server's byte accounting identical.
func TestChaosWireDelegation(t *testing.T) {
	w := WireOpts{Version: codec.Version1, Quant: codec.QuantFloat16}
	inner := NewInProcWire([]Client{mirrorClient{}}, w)
	chaos := NewChaos(inner, 1)
	if got := chaos.Wire(); got != w {
		t.Fatalf("chaos Wire() = %+v, want %+v", got, w)
	}
	srv := NewServer(chaos)
	req := wireFixtures()[2]
	if _, err := srv.Call(0, req); err != nil {
		t.Fatal(err)
	}
	if st := srv.Stats(); st.BytesDown != w.Size(req) {
		t.Errorf("chaos-wrapped BytesDown = %d, want %d", st.BytesDown, w.Size(req))
	}
	// An inner transport that does not report its format degrades to
	// lossless v1 accounting through the chaos wrapper too.
	if got := NewChaos(wirelessTransport{inner}, 1).Wire(); got != (WireOpts{}) {
		t.Errorf("Wire-less inner reported %+v", got)
	}
}
