package fl

import (
	"fmt"
	"strings"

	"fedforecaster/internal/fl/codec"
)

// WireOpts selects the wire format a transport speaks: codec v1 plus
// the encoder-side quantization tier. The zero value is lossless v1.
type WireOpts struct {
	// Version is the wire version this endpoint speaks. Codec v1 is the
	// only format, so 0 and 1 both mean v1.
	Version int
	// Quant is the lossy tier applied to eligible float vectors. It is
	// an encoder-side choice: any v1 decoder reads any quant mode, so
	// the two ends of a connection may differ.
	Quant codec.QuantMode
}

// codecOptions projects the encoder-side tier for package codec.
func (w WireOpts) codecOptions() codec.Options {
	return codec.Options{Quant: w.Quant}
}

// Size returns the byte count communication accounting bills for one
// message under these options: the exact encoded frame length.
func (w WireOpts) Size(m Message) int64 {
	return int64(codec.EncodedSize(m, w.codecOptions()))
}

// String renders the options in the -wire flag syntax.
func (w WireOpts) String() string {
	switch w.Quant {
	case codec.QuantInt8:
		return "v1+q8"
	case codec.QuantFloat16:
		return "v1+q16"
	}
	return "v1"
}

// ParseWireOpts parses the -wire flag syntax: "v1" optionally followed
// by one "+"-separated payload tier — "q8" (int8 quantization) or
// "q16" (float16 quantization). Examples: "v1", "v1+q8", "v1+q16".
func ParseWireOpts(s string) (WireOpts, error) {
	parts := strings.Split(s, "+")
	if parts[0] != "v1" {
		return WireOpts{}, fmt.Errorf("fl: wire %q: unknown version %q (want v1)", s, parts[0])
	}
	w := WireOpts{Version: codec.Version1}
	for _, p := range parts[1:] {
		switch p {
		case "q8":
			w.Quant = codec.QuantInt8
		case "q16":
			w.Quant = codec.QuantFloat16
		default:
			return WireOpts{}, fmt.Errorf("fl: wire %q: unknown tier %q (want q8 or q16)", s, p)
		}
	}
	return w, nil
}

// WireTransport is implemented by transports that know which wire
// format they speak. NewServer consults it so communication accounting
// matches the bytes the transport actually ships; transports without
// it are billed at lossless v1.
type WireTransport interface {
	Transport
	// Wire reports the transport's configured wire options.
	Wire() WireOpts
}
