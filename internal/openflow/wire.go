// Package openflow implements the OpenFlow 1.3 wire subset the NSX agent
// uses to program OVS (Section 4): HELLO/ECHO keepalives, FLOW_MOD with
// OXM matches, APPLY_ACTIONS/GOTO_TABLE/METER instructions, and
// Nicira-style experimenter actions for conntrack and tunnel operations.
//
// Encoding follows the OpenFlow 1.3 framing (8-byte header, OXM TLVs,
// 8-byte-aligned structures). Matches and actions convert to and from the
// internal ofproto representation, so a controller connection drives the
// same pipeline the datapath translates against.
package openflow

import (
	"encoding/binary"
	"fmt"
	"io"
)

// Version is OpenFlow 1.3.
const Version = 0x04

// MsgType is the OpenFlow message type.
type MsgType uint8

// Message types (OpenFlow 1.3 numbering).
const (
	TypeHello         MsgType = 0
	TypeError         MsgType = 1
	TypeEchoRequest   MsgType = 2
	TypeEchoReply     MsgType = 3
	TypeFeaturesReq   MsgType = 5
	TypeFeaturesReply MsgType = 6
	TypeFlowMod       MsgType = 14
)

// String names the message type.
func (t MsgType) String() string {
	switch t {
	case TypeHello:
		return "hello"
	case TypeError:
		return "error"
	case TypeEchoRequest:
		return "echo-request"
	case TypeEchoReply:
		return "echo-reply"
	case TypeFeaturesReq:
		return "features-request"
	case TypeFeaturesReply:
		return "features-reply"
	case TypeFlowMod:
		return "flow-mod"
	default:
		return fmt.Sprintf("type-%d", uint8(t))
	}
}

// HeaderSize is the fixed OpenFlow header size.
const HeaderSize = 8

// MaxMessageSize bounds a single message (sanity limit).
const MaxMessageSize = 1 << 20

// Message is one framed OpenFlow message.
type Message struct {
	Type MsgType
	Xid  uint32
	Body []byte
}

// Encode frames the message.
func (m Message) Encode() []byte {
	out := make([]byte, HeaderSize+len(m.Body))
	out[0] = Version
	out[1] = uint8(m.Type)
	binary.BigEndian.PutUint16(out[2:4], uint16(len(out)))
	binary.BigEndian.PutUint32(out[4:8], m.Xid)
	copy(out[HeaderSize:], m.Body)
	return out
}

// ReadMessage reads one framed message from r.
func ReadMessage(r io.Reader) (Message, error) {
	var hdr [HeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return Message{}, err
	}
	if hdr[0] != Version {
		return Message{}, fmt.Errorf("openflow: unsupported version %#x", hdr[0])
	}
	length := int(binary.BigEndian.Uint16(hdr[2:4]))
	if length < HeaderSize || length > MaxMessageSize {
		return Message{}, fmt.Errorf("openflow: bad message length %d", length)
	}
	m := Message{
		Type: MsgType(hdr[1]),
		Xid:  binary.BigEndian.Uint32(hdr[4:8]),
		Body: make([]byte, length-HeaderSize),
	}
	if _, err := io.ReadFull(r, m.Body); err != nil {
		return Message{}, err
	}
	return m, nil
}

// WriteMessage writes one framed message to w.
func WriteMessage(w io.Writer, m Message) error {
	_, err := w.Write(m.Encode())
	return err
}

// Hello builds a HELLO.
func Hello(xid uint32) Message { return Message{Type: TypeHello, Xid: xid} }

// EchoRequest builds an ECHO_REQUEST.
func EchoRequest(xid uint32, payload []byte) Message {
	return Message{Type: TypeEchoRequest, Xid: xid, Body: payload}
}

// EchoReply answers an echo.
func EchoReply(req Message) Message {
	return Message{Type: TypeEchoReply, Xid: req.Xid, Body: req.Body}
}

// ErrorMsg builds an ERROR with type/code and the offending data.
func ErrorMsg(xid uint32, errType, code uint16, data []byte) Message {
	body := make([]byte, 4+len(data))
	binary.BigEndian.PutUint16(body[0:2], errType)
	binary.BigEndian.PutUint16(body[2:4], code)
	copy(body[4:], data)
	return Message{Type: TypeError, Xid: xid, Body: body}
}

// FeaturesReply carries the datapath id.
func FeaturesReply(xid uint32, datapathID uint64) Message {
	body := make([]byte, 24)
	binary.BigEndian.PutUint64(body[0:8], datapathID)
	binary.BigEndian.PutUint32(body[8:12], 0) // n_buffers
	body[12] = 254                            // n_tables
	return Message{Type: TypeFeaturesReply, Xid: xid, Body: body}
}

// ParseFeaturesReply extracts the datapath id.
func ParseFeaturesReply(m Message) (uint64, error) {
	if m.Type != TypeFeaturesReply || len(m.Body) < 8 {
		return 0, fmt.Errorf("openflow: not a features reply")
	}
	return binary.BigEndian.Uint64(m.Body[0:8]), nil
}

// pad8 returns n rounded up to a multiple of 8.
func pad8(n int) int { return (n + 7) &^ 7 }
