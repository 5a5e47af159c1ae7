"""XRL frame codecs: one binary atom encoding under two frame headers.

Both frame codecs share the request/response surface and carry their
arguments in the same **atom section**:

    ``uvarint count``, then per atom ``uvarint len(name)  name-utf8  tag
    payload`` — integers as (zigzag) varints, a u32 below 0x80 packed into
    the tag byte itself, text and binary length-prefixed, addresses as
    packed bytes, prefixes as packed network + one length byte, lists as
    a nested atom section.

("internally XRLs are encoded more efficiently", paper §3.1.)  The
canonical ``name:type=value`` text of :mod:`repro.xrl.types` is for XRL
strings and scripting, never for frames.

The two frame headers:

* **textual** — stateless and self-describing; the frame every transport
  speaks by default.  "textual" is the capability token the TCP HELLO
  exchange advertises for it; only the method and note are text.

  - request:  ``!I seq  !H len(method)  method-utf8  atoms``
  - response: ``!I seq  !I errcode  !H len(note)  note-utf8  atoms``

* **binary** — a per-connection stateful codec negotiated over TCP via a
  hello/capability exchange, with varint error codes and note lengths and
  per-connection **method interning**: the resolved method string (a
  16-byte access key + interface/version/method, ~55 bytes) is
  transmitted once and then referenced by a 1–2 byte id.

Decoding the atom section makes the checks :class:`XrlAtom` construction
makes: atom names, integer ranges (the same ``_INT_RANGES`` table),
prefix lengths, and the address family the tag implies.  Truncated frames,
trailing bytes, duplicate argument names and lists nested more than 32
deep are rejected too; every corrupt frame surfaces as
``XrlError(BAD_ARGS)`` and nothing else.

The *method* string on the wire is the **resolved** method name, i.e. the
Finder-issued 16-byte access key followed by ``interface/version/method``
(paper §7) — receivers reject requests whose key does not match.

Both codecs keep the sequence number as the first four bytes (``!I``) of
the body so transports can demux replies without knowing the codec.

Frame *kind* bytes (prefixed by codec-aware transports, i.e. TCP):

========  =====================================================
``0x00``  textual body follows
``0x01``  binary body follows
``0x7E``  HELLO — JSON capabilities, opens negotiation
``0x7F``  HELLO-ACK — JSON ``{"codec": ...}``, closes negotiation
========  =====================================================

A connection starts textual in both directions; each side switches to
binary only after the HELLO/HELLO-ACK round-trip, so an endpoint that
never answers (or answers with an empty codec set) silently leaves the
connection on the textual frames — the transparent fallback.
"""

from __future__ import annotations

import json
import struct
from typing import Dict, List, Optional, Tuple

from repro.net import IPNet, IPv4, IPv6, Mac
from repro.xrl.args import XrlArgs
from repro.xrl.error import XrlError, XrlErrorCode
from repro.xrl.types import _INT_RANGES, XrlAtom, XrlAtomType, _valid_name

# -- frame kinds (transport prefix, one byte) ---------------------------------

KIND_TEXTUAL = 0x00
KIND_BINARY = 0x01
KIND_HELLO = 0x7E
KIND_HELLO_ACK = 0x7F


# -- varints ------------------------------------------------------------------

def write_uvarint(buf: bytearray, value: int) -> None:
    while value > 0x7F:
        buf.append((value & 0x7F) | 0x80)
        value >>= 7
    buf.append(value)


def read_uvarint(data: bytes, offset: int) -> Tuple[int, int]:
    result = 0
    shift = 0
    while True:
        byte = data[offset]
        offset += 1
        result |= (byte & 0x7F) << shift
        if byte < 0x80:
            return result, offset
        shift += 7
        if shift > 70:
            raise ValueError("uvarint too long")


def _zigzag(value: int) -> int:
    return (value << 1) ^ (value >> 63)


def _unzigzag(value: int) -> int:
    return (value >> 1) ^ -(value & 1)


# -- the atom section ---------------------------------------------------------

_TAG_I32 = 0x01
_TAG_U32 = 0x02
_TAG_I64 = 0x03
_TAG_U64 = 0x04
_TAG_TXT = 0x05
_TAG_BOOL_FALSE = 0x06
_TAG_BOOL_TRUE = 0x07
_TAG_IPV4 = 0x08
_TAG_IPV6 = 0x09
_TAG_IPV4NET = 0x0A
_TAG_IPV6NET = 0x0B
_TAG_MAC = 0x0C
_TAG_BINARY = 0x0D
_TAG_LIST = 0x0E
#: ``0x80 | v`` packs a u32 in [0, 0x7F] into the tag byte itself
_TAG_FIXU32 = 0x80

def _encode_atoms(buf: bytearray, atoms: List[XrlAtom]) -> None:
    write_uvarint(buf, len(atoms))
    for atom in atoms:
        name_bytes = atom.name.encode("utf-8")
        write_uvarint(buf, len(name_bytes))
        buf += name_bytes
        t = atom.type
        value = atom.value
        if t is XrlAtomType.U32:
            if value < 0x80:
                buf.append(_TAG_FIXU32 | value)
            else:
                buf.append(_TAG_U32)
                write_uvarint(buf, value)
        elif t is XrlAtomType.TXT:
            data = value.encode("utf-8")
            buf.append(_TAG_TXT)
            write_uvarint(buf, len(data))
            buf += data
        elif t is XrlAtomType.BOOL:
            buf.append(_TAG_BOOL_TRUE if value else _TAG_BOOL_FALSE)
        elif t is XrlAtomType.I32:
            buf.append(_TAG_I32)
            write_uvarint(buf, _zigzag(value))
        elif t is XrlAtomType.I64:
            buf.append(_TAG_I64)
            write_uvarint(buf, _zigzag(value))
        elif t is XrlAtomType.U64:
            buf.append(_TAG_U64)
            write_uvarint(buf, value)
        elif t is XrlAtomType.IPV4:
            buf.append(_TAG_IPV4)
            buf += value.to_bytes()
        elif t is XrlAtomType.IPV6:
            buf.append(_TAG_IPV6)
            buf += value.to_bytes()
        elif t is XrlAtomType.IPV4NET:
            buf.append(_TAG_IPV4NET)
            buf += value.network.to_bytes()
            buf.append(value.prefix_len)
        elif t is XrlAtomType.IPV6NET:
            buf.append(_TAG_IPV6NET)
            buf += value.network.to_bytes()
            buf.append(value.prefix_len)
        elif t is XrlAtomType.MAC:
            buf.append(_TAG_MAC)
            buf += value.to_bytes()
        elif t is XrlAtomType.BINARY:
            buf.append(_TAG_BINARY)
            write_uvarint(buf, len(value))
            buf += value
        elif t is XrlAtomType.LIST:
            buf.append(_TAG_LIST)
            _encode_atoms(buf, value)
        else:  # pragma: no cover - the tag table covers every atom type
            raise XrlError(XrlErrorCode.INTERNAL_ERROR, f"unencodable type {t}")


def _new_atom(name: str, atom_type: XrlAtomType, value) -> XrlAtom:
    # The decoder has already made XrlAtom.__init__'s checks on the
    # wire form, so the atom is built without repeating them.
    atom = XrlAtom.__new__(XrlAtom)
    atom.name = name
    atom.type = atom_type
    atom.value = value
    return atom


def _int_atom(name: str, atom_type: XrlAtomType, value: int) -> XrlAtom:
    lo, hi = _INT_RANGES[atom_type]
    if not lo <= value <= hi:
        raise ValueError(f"{atom_type.value} {value} outside [{lo}, {hi}]")
    return _new_atom(name, atom_type, value)


#: how deep lists may nest in a frame; deeper frames are corrupt
_MAX_LIST_DEPTH = 32

#: wire name bytes -> checked atom name.  Argument names repeat from
#: frame to frame, so each distinct short name is checked once, up to a
#: bound that keeps corrupt or hostile frames from growing the table.
_names: Dict[bytes, str] = {}
_NAMES_MAX = 1024
_NAME_CACHED_LEN = 64


def _atom_name(raw: bytes) -> str:
    name = raw.decode("utf-8")
    if not _valid_name(name):
        raise ValueError(f"bad atom name {name!r}")
    if len(raw) <= _NAME_CACHED_LEN and len(_names) < _NAMES_MAX:
        _names[raw] = name
    return name


def _decode_atoms(data: bytes, offset: int,
                  depth: int = 0) -> Tuple[List[XrlAtom], int]:
    if depth > _MAX_LIST_DEPTH:
        raise ValueError(f"lists nested deeper than {_MAX_LIST_DEPTH}")
    count, offset = read_uvarint(data, offset)
    atoms: List[XrlAtom] = []
    append = atoms.append
    for __ in range(count):
        name_len, offset = read_uvarint(data, offset)
        end = offset + name_len
        raw = data[offset:end]
        name = _names.get(raw) or _atom_name(raw)
        tag = data[end]
        offset = end + 1
        if tag >= _TAG_FIXU32:
            append(_new_atom(name, XrlAtomType.U32, tag & 0x7F))
        elif tag == _TAG_U32:
            value, offset = read_uvarint(data, offset)
            append(_int_atom(name, XrlAtomType.U32, value))
        elif tag == _TAG_TXT:
            length, offset = read_uvarint(data, offset)
            end = offset + length
            if end > len(data):
                raise ValueError("truncated txt payload")
            append(_new_atom(name, XrlAtomType.TXT,
                             data[offset:end].decode("utf-8")))
            offset = end
        elif tag == _TAG_BOOL_TRUE:
            append(_new_atom(name, XrlAtomType.BOOL, True))
        elif tag == _TAG_BOOL_FALSE:
            append(_new_atom(name, XrlAtomType.BOOL, False))
        elif tag == _TAG_I32:
            value, offset = read_uvarint(data, offset)
            append(_int_atom(name, XrlAtomType.I32, _unzigzag(value)))
        elif tag == _TAG_I64:
            value, offset = read_uvarint(data, offset)
            append(_int_atom(name, XrlAtomType.I64, _unzigzag(value)))
        elif tag == _TAG_U64:
            value, offset = read_uvarint(data, offset)
            append(_int_atom(name, XrlAtomType.U64, value))
        elif tag == _TAG_IPV4:
            end = offset + 4
            append(_new_atom(name, XrlAtomType.IPV4, IPv4(data[offset:end])))
            offset = end
        elif tag == _TAG_IPV6:
            end = offset + 16
            append(_new_atom(name, XrlAtomType.IPV6, IPv6(data[offset:end])))
            offset = end
        elif tag == _TAG_IPV4NET:
            end = offset + 4
            append(_new_atom(name, XrlAtomType.IPV4NET,
                             IPNet(IPv4(data[offset:end]), data[end])))
            offset = end + 1
        elif tag == _TAG_IPV6NET:
            end = offset + 16
            append(_new_atom(name, XrlAtomType.IPV6NET,
                             IPNet(IPv6(data[offset:end]), data[end])))
            offset = end + 1
        elif tag == _TAG_MAC:
            end = offset + 6
            append(_new_atom(name, XrlAtomType.MAC, Mac(data[offset:end])))
            offset = end
        elif tag == _TAG_BINARY:
            length, offset = read_uvarint(data, offset)
            end = offset + length
            if end > len(data):
                raise ValueError("truncated binary payload")
            append(_new_atom(name, XrlAtomType.BINARY, bytes(data[offset:end])))
            offset = end
        elif tag == _TAG_LIST:
            value, offset = _decode_atoms(data, offset, depth + 1)
            append(_new_atom(name, XrlAtomType.LIST, value))
        else:
            raise ValueError(f"unknown atom tag {tag:#x}")
    return atoms, offset


def _decode_args(data: bytes, offset: int) -> XrlArgs:
    """Decode the atom section that ends a frame; nothing may follow it."""
    if type(data) is not bytes:  # name slices must be hashable
        data = bytes(data)
    atoms, offset = _decode_atoms(data, offset)
    if offset != len(data):
        raise ValueError(f"{len(data) - offset} trailing bytes")
    args = XrlArgs.__new__(XrlArgs)
    args._atoms = atoms
    args._index = {atom.name: atom for atom in atoms}
    if len(args._index) != len(atoms):
        raise ValueError("duplicate argument name")
    return args


#: what decoding a corrupt frame may raise; the codecs turn it into BAD_ARGS
_CORRUPT = (struct.error, ValueError, IndexError)


# -- frame codecs -------------------------------------------------------------

class FrameCodec:
    """Encode/decode one direction-pair of XRL frames for one connection."""

    name: str = "?"
    #: the frame-kind byte codec-aware transports prefix bodies with
    kind: int = KIND_TEXTUAL

    def encode_request(self, seq: int, resolved_method: str,
                       args: XrlArgs) -> bytes:
        raise NotImplementedError

    def decode_request(self, data: bytes) -> Tuple[int, str, XrlArgs]:
        raise NotImplementedError

    def encode_response(self, seq: int, error: XrlError,
                        args: Optional[XrlArgs]) -> bytes:
        raise NotImplementedError

    def decode_response(self, data: bytes) -> Tuple[int, XrlError, XrlArgs]:
        raise NotImplementedError


class TextualCodec(FrameCodec):
    """The stateless frame every transport speaks by default."""

    name = "textual"
    kind = KIND_TEXTUAL

    def encode_request(self, seq: int, resolved_method: str,
                       args: XrlArgs) -> bytes:
        method_bytes = resolved_method.encode("utf-8")
        buf = bytearray(struct.pack("!IH", seq & 0xFFFFFFFF,
                                    len(method_bytes)))
        buf += method_bytes
        _encode_atoms(buf, args._atoms)
        return bytes(buf)

    def decode_request(self, data: bytes) -> Tuple[int, str, XrlArgs]:
        try:
            seq, method_len = struct.unpack_from("!IH", data, 0)
            end = 6 + method_len
            method = data[6:end].decode("utf-8")
            args = _decode_args(data, end)
        except _CORRUPT as exc:
            raise XrlError(
                XrlErrorCode.BAD_ARGS, f"corrupt request frame: {exc}"
            ) from exc
        return seq, method, args

    def encode_response(self, seq: int, error: XrlError,
                        args: Optional[XrlArgs]) -> bytes:
        note_bytes = error.note.encode("utf-8")
        buf = bytearray(struct.pack("!IIH", seq & 0xFFFFFFFF,
                                    int(error.code), len(note_bytes)))
        buf += note_bytes
        _encode_atoms(buf, args._atoms if args is not None else ())
        return bytes(buf)

    def decode_response(self, data: bytes) -> Tuple[int, XrlError, XrlArgs]:
        try:
            seq, code, note_len = struct.unpack_from("!IIH", data, 0)
            end = 10 + note_len
            note = data[10:end].decode("utf-8")
            args = _decode_args(data, end)
            error = XrlError(XrlErrorCode(code), note)
        except _CORRUPT as exc:
            raise XrlError(
                XrlErrorCode.BAD_ARGS, f"corrupt response frame: {exc}"
            ) from exc
        return seq, error, args


#: the shared stateless instance every non-negotiating transport uses
TEXTUAL = TextualCodec()


class BinaryCodec(FrameCodec):
    """One connection endpoint's binary frame state.

    Request encoding and request decoding each carry a method-intern
    table.  The tables stay consistent because frames travel over an
    ordered byte stream: the encoder assigns ids in emission order and
    the decoder assigns the same ids in arrival order.  Responses carry
    no interned state, so they survive connection-codec transitions.
    """

    name = "binary"
    kind = KIND_BINARY

    __slots__ = ("_methods_out", "_methods_in")

    def __init__(self) -> None:
        #: method -> pre-rendered token bytes (encoder side)
        self._methods_out: Dict[str, bytes] = {}
        #: id (1-based, list index + 1) -> method (decoder side)
        self._methods_in: List[str] = []

    # -- requests ---------------------------------------------------------
    def encode_request(self, seq: int, resolved_method: str,
                       args: XrlArgs) -> bytes:
        buf = bytearray(struct.pack("!I", seq & 0xFFFFFFFF))
        token = self._methods_out.get(resolved_method)
        if token is None:
            # First use on this connection: emit the definition (token 0
            # + string); later frames reference it by implicit id.
            method_bytes = resolved_method.encode("utf-8")
            buf.append(0)
            write_uvarint(buf, len(method_bytes))
            buf += method_bytes
            ref = bytearray()
            write_uvarint(ref, len(self._methods_out) + 1)
            self._methods_out[resolved_method] = bytes(ref)
        else:
            buf += token
        _encode_atoms(buf, args._atoms)
        return bytes(buf)

    def decode_request(self, data: bytes) -> Tuple[int, str, XrlArgs]:
        try:
            (seq,) = struct.unpack_from("!I", data, 0)
            token, offset = read_uvarint(data, 4)
            if token == 0:
                length, offset = read_uvarint(data, offset)
                end = offset + length
                if end > len(data):
                    raise ValueError("truncated method definition")
                method = data[offset:end].decode("utf-8")
                self._methods_in.append(method)
                offset = end
            else:
                method = self._methods_in[token - 1]
            args = _decode_args(data, offset)
        except _CORRUPT as exc:
            raise XrlError(
                XrlErrorCode.BAD_ARGS, f"corrupt binary request frame: {exc}"
            ) from exc
        return seq, method, args

    # -- responses --------------------------------------------------------
    def encode_response(self, seq: int, error: XrlError,
                        args: Optional[XrlArgs]) -> bytes:
        buf = bytearray(struct.pack("!I", seq & 0xFFFFFFFF))
        write_uvarint(buf, int(error.code))
        note_bytes = error.note.encode("utf-8")
        write_uvarint(buf, len(note_bytes))
        buf += note_bytes
        _encode_atoms(buf, args._atoms if args is not None else [])
        return bytes(buf)

    def decode_response(self, data: bytes) -> Tuple[int, XrlError, XrlArgs]:
        try:
            (seq,) = struct.unpack_from("!I", data, 0)
            code, offset = read_uvarint(data, 4)
            note_len, offset = read_uvarint(data, offset)
            end = offset + note_len
            if end > len(data):
                raise ValueError("truncated error note")
            note = data[offset:end].decode("utf-8")
            args = _decode_args(data, end)
            error = XrlError(XrlErrorCode(code), note)
        except _CORRUPT as exc:
            raise XrlError(
                XrlErrorCode.BAD_ARGS, f"corrupt binary response frame: {exc}"
            ) from exc
        return seq, error, args


# -- negotiation --------------------------------------------------------------

#: codecs in preference order (first common entry wins)
CODEC_PREFERENCE = ("binary", "textual")


def encode_hello(codecs) -> bytes:
    """The HELLO / HELLO-ACK payload: JSON capability dict."""
    return json.dumps({"codecs": list(codecs)}).encode("utf-8")


def decode_hello(payload: bytes) -> List[str]:
    try:
        message = json.loads(payload.decode("utf-8"))
        if not isinstance(message, dict):
            raise ValueError("hello payload must be a JSON object")
        codecs = message.get("codecs", [])
        if not isinstance(codecs, list):
            raise ValueError("codecs must be a list")
        return [str(codec) for codec in codecs]
    except (ValueError, UnicodeDecodeError) as exc:
        raise XrlError(
            XrlErrorCode.BAD_ARGS, f"corrupt hello frame: {exc}"
        ) from exc


def choose_codec(local, remote) -> str:
    """Pick the preferred codec both ends speak (textual as floor)."""
    remote_set = set(remote)
    for codec in CODEC_PREFERENCE:
        if codec in local and codec in remote_set:
            return codec
    return "textual"


def make_codec(name: str) -> FrameCodec:
    if name == "binary":
        return BinaryCodec()
    return TEXTUAL
