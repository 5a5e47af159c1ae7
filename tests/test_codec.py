"""Property tests for the negotiated binary XRL frame codec.

The binary codec is stateful (per-connection method interning) and shares
its atom section with the textual codec, so the properties that matter
are:

* **round trip** — any encodable frame decodes to the same
  seq/method/error/args, for every atom type, nested lists included;
* **codec equivalence** — the textual and binary codecs agree on the
  semantic content of every frame;
* **structured failure** — truncated or corrupted frames of either codec
  either decode (corruption can be semantically invisible) or raise
  ``XrlError(BAD_ARGS)``; never any other exception, because a transport
  feeds these to a live dispatch loop;
* **decode checks** — out-of-range integers, bad or duplicate names and
  bad prefix lengths are rejected as XrlAtom construction rejects them;
* **interning** — repeated methods shrink to a 1–2 byte reference and
  decode through the paired table; a dangling reference is a structured
  error;
* **negotiation** — HELLO payloads round-trip, garbage is rejected as
  :class:`XrlError`, and codec choice always lands on a codec both ends
  speak, with textual as the floor.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import IPNet, IPv4, IPv6, Mac
from repro.xrl.args import XrlArgs
from repro.xrl.codec import (
    CODEC_PREFERENCE,
    TEXTUAL,
    BinaryCodec,
    TextualCodec,
    choose_codec,
    decode_hello,
    encode_hello,
    make_codec,
)
from repro.xrl.error import XrlError, XrlErrorCode
from repro.xrl.types import XrlAtom, XrlAtomType

# -- strategies ---------------------------------------------------------------

atom_names = st.text(
    alphabet=st.characters(min_codepoint=0x21, max_codepoint=0x7E,
                           exclude_characters="%&=?/:,"),
    min_size=1, max_size=12)


def _scalar_atom(name):
    return st.one_of(
        st.builds(lambda n, v: XrlAtom(n, XrlAtomType.I32, v), name,
                  st.integers(-(1 << 31), (1 << 31) - 1)),
        st.builds(lambda n, v: XrlAtom(n, XrlAtomType.U32, v), name,
                  st.integers(0, (1 << 32) - 1)),
        st.builds(lambda n, v: XrlAtom(n, XrlAtomType.I64, v), name,
                  st.integers(-(1 << 63), (1 << 63) - 1)),
        st.builds(lambda n, v: XrlAtom(n, XrlAtomType.U64, v), name,
                  st.integers(0, (1 << 64) - 1)),
        st.builds(lambda n, v: XrlAtom(n, XrlAtomType.TXT, v), name,
                  st.text(max_size=48)),
        st.builds(lambda n, v: XrlAtom(n, XrlAtomType.BOOL, v), name,
                  st.booleans()),
        st.builds(lambda n, v: XrlAtom(n, XrlAtomType.IPV4, IPv4(v)), name,
                  st.integers(0, (1 << 32) - 1)),
        st.builds(lambda n, v: XrlAtom(n, XrlAtomType.IPV6, IPv6(v)), name,
                  st.integers(0, (1 << 128) - 1)),
        st.builds(lambda n, v, p: XrlAtom(n, XrlAtomType.IPV4NET,
                                          IPNet(IPv4(v), p)),
                  name, st.integers(0, (1 << 32) - 1), st.integers(0, 32)),
        st.builds(lambda n, v, p: XrlAtom(n, XrlAtomType.IPV6NET,
                                          IPNet(IPv6(v), p)),
                  name, st.integers(0, (1 << 128) - 1), st.integers(0, 128)),
        st.builds(lambda n, v: XrlAtom(n, XrlAtomType.MAC, Mac(v)), name,
                  st.integers(0, (1 << 48) - 1)),
        st.builds(lambda n, v: XrlAtom(n, XrlAtomType.BINARY, bytes(v)), name,
                  st.lists(st.integers(0, 255), max_size=48)),
    )


def _list_atom(name):
    return st.builds(
        lambda n, items: XrlAtom(n, XrlAtomType.LIST, items),
        name, st.lists(_scalar_atom(atom_names), max_size=4))


def _args_from(atoms):
    args = XrlArgs()
    for atom in atoms:
        if atom.name not in args._index:
            args.add(atom)
    return args


args_strategy = st.builds(
    _args_from,
    st.lists(st.one_of(_scalar_atom(atom_names), _list_atom(atom_names)),
             max_size=6))

methods = st.text(
    alphabet=st.characters(min_codepoint=0x21, max_codepoint=0x7E),
    min_size=1, max_size=80)

seqs = st.integers(0, (1 << 32) - 1)

error_codes = st.sampled_from(list(XrlErrorCode))

#: both frame codecs, as factories for a fresh endpoint
CODECS = [BinaryCodec, TextualCodec]
codecs = st.sampled_from(CODECS)


def _assert_args_equal(a: XrlArgs, b: XrlArgs) -> None:
    assert list(a) == list(b)


# -- round trips --------------------------------------------------------------

class TestBinaryRoundTrip:
    @settings(max_examples=200)
    @given(seqs, methods, args_strategy)
    def test_request(self, seq, method, args):
        encoder, decoder = BinaryCodec(), BinaryCodec()
        seq2, method2, args2 = decoder.decode_request(
            encoder.encode_request(seq, method, args))
        assert (seq2, method2) == (seq, method)
        _assert_args_equal(args2, args)

    @settings(max_examples=200)
    @given(seqs, error_codes, st.text(max_size=80), args_strategy)
    def test_response(self, seq, code, note, args):
        encoder, decoder = BinaryCodec(), BinaryCodec()
        seq2, error, args2 = decoder.decode_response(
            encoder.encode_response(seq, XrlError(code, note), args))
        assert (seq2, error.code, error.note) == (seq, code, note)
        _assert_args_equal(args2, args)

    @given(seqs, methods, args_strategy)
    def test_equivalent_to_textual(self, seq, method, args):
        """Both codecs agree on the semantic content of any frame."""
        encoder, decoder = BinaryCodec(), BinaryCodec()
        binary = decoder.decode_request(
            encoder.encode_request(seq, method, args))
        textual = TEXTUAL.decode_request(
            TEXTUAL.encode_request(seq, method, args))
        assert binary[:2] == textual[:2]
        _assert_args_equal(binary[2], textual[2])

    @given(seqs, methods, args_strategy)
    def test_seq_is_first_four_bytes_in_both_codecs(self, seq, method, args):
        """Transports demux replies on bytes 0–3 without knowing the codec."""
        binary = BinaryCodec().encode_request(seq, method, args)
        textual = TEXTUAL.encode_request(seq, method, args)
        assert binary[:4] == textual[:4]


# -- adversarial frames -------------------------------------------------------

class TestStructuredFailure:
    """Damaged frames of both codecs: each case draws the codec too."""

    @settings(max_examples=200)
    @given(codecs, seqs, methods, args_strategy, st.data())
    def test_truncated_request_raises_xrl_error(self, make_codec, seq, method,
                                                args, data):
        frame = make_codec().encode_request(seq, method, args)
        cut = data.draw(st.integers(0, len(frame) - 1))
        with pytest.raises(XrlError) as excinfo:
            make_codec().decode_request(frame[:cut])
        assert excinfo.value.code == XrlErrorCode.BAD_ARGS

    @settings(max_examples=200)
    @given(codecs, seqs, methods, args_strategy, st.data())
    def test_corrupt_request_never_escapes_xrl_error(self, make_codec, seq,
                                                     method, args, data):
        """A flipped byte decodes or raises XrlError — nothing else."""
        frame = bytearray(make_codec().encode_request(seq, method, args))
        position = data.draw(st.integers(0, len(frame) - 1))
        frame[position] ^= data.draw(st.integers(1, 255))
        try:
            make_codec().decode_request(bytes(frame))
        except XrlError as exc:
            assert exc.code == XrlErrorCode.BAD_ARGS

    @settings(max_examples=200)
    @given(codecs, seqs, error_codes, st.text(max_size=40), args_strategy,
           st.data())
    def test_corrupt_response_never_escapes_xrl_error(self, make_codec, seq,
                                                      code, note, args, data):
        frame = bytearray(make_codec().encode_response(
            seq, XrlError(code, note), args))
        position = data.draw(st.integers(0, len(frame) - 1))
        frame[position] ^= data.draw(st.integers(1, 255))
        try:
            make_codec().decode_response(bytes(frame))
        except XrlError as exc:
            assert exc.code == XrlErrorCode.BAD_ARGS

    @given(codecs, st.binary(max_size=64))
    def test_random_garbage_raises_or_decodes(self, make_codec, junk):
        try:
            make_codec().decode_request(junk)
        except XrlError as exc:
            assert exc.code == XrlErrorCode.BAD_ARGS
        try:
            make_codec().decode_response(junk)
        except XrlError as exc:
            assert exc.code == XrlErrorCode.BAD_ARGS

    def test_trailing_bytes_rejected(self):
        for make_codec in CODECS:
            codec = make_codec()
            request = codec.encode_request(1, "m", XrlArgs())
            response = codec.encode_response(1, XrlError.okay(), XrlArgs())
            with pytest.raises(XrlError) as excinfo:
                make_codec().decode_request(request + b"\x00")
            assert excinfo.value.code == XrlErrorCode.BAD_ARGS
            with pytest.raises(XrlError) as excinfo:
                make_codec().decode_response(response + b"\x00")
            assert excinfo.value.code == XrlErrorCode.BAD_ARGS


def _unchecked_atom(name, atom_type, value):
    """An atom built without XrlAtom's checks, as a faulty peer could send."""
    atom = XrlAtom.__new__(XrlAtom)
    atom.name, atom.type, atom.value = name, atom_type, value
    return atom


class TestDecodeChecks:
    """Decoding makes the checks XrlAtom construction makes."""

    @pytest.mark.parametrize("make_codec", CODECS)
    @pytest.mark.parametrize("atom_type,value", [
        (XrlAtomType.U32, 1 << 40),
        (XrlAtomType.U32, 1 << 32),
        (XrlAtomType.I32, -(1 << 40)),
        (XrlAtomType.I32, 1 << 31),
        (XrlAtomType.I64, 1 << 63),
        (XrlAtomType.U64, 1 << 64),
    ])
    def test_out_of_range_integer_rejected(self, make_codec, atom_type, value):
        args = XrlArgs.__new__(XrlArgs)
        args._atoms = [_unchecked_atom("n", atom_type, value)]
        codec = make_codec()
        request = codec.encode_request(1, "m/1.0/x", args)
        response = codec.encode_response(1, XrlError.okay(), args)
        with pytest.raises(XrlError) as excinfo:
            make_codec().decode_request(request)
        assert excinfo.value.code == XrlErrorCode.BAD_ARGS
        with pytest.raises(XrlError) as excinfo:
            make_codec().decode_response(response)
        assert excinfo.value.code == XrlErrorCode.BAD_ARGS

    @pytest.mark.parametrize("make_codec", CODECS)
    @pytest.mark.parametrize("atoms", [
        [_unchecked_atom("a&b", XrlAtomType.U32, 1)],
        [_unchecked_atom("n", XrlAtomType.U32, 1),
         _unchecked_atom("n", XrlAtomType.U32, 2)],
        [_unchecked_atom("l", XrlAtomType.LIST,
                         [_unchecked_atom("", XrlAtomType.BOOL, True)])],
    ], ids=["bad-name", "duplicate-name", "empty-name-in-list"])
    def test_bad_names_rejected(self, make_codec, atoms):
        args = XrlArgs.__new__(XrlArgs)
        args._atoms = atoms
        frame = make_codec().encode_request(1, "m/1.0/x", args)
        with pytest.raises(XrlError) as excinfo:
            make_codec().decode_request(frame)
        assert excinfo.value.code == XrlErrorCode.BAD_ARGS

    @pytest.mark.parametrize("make_codec", CODECS)
    def test_prefix_length_checked(self, make_codec):
        net = XrlArgs().add_ipv4net("net", IPNet(IPv4("10.0.0.0"), 8))
        frame = bytearray(make_codec().encode_request(1, "m/1.0/x", net))
        frame[-1] = 33  # the prefix length is the frame's last byte
        with pytest.raises(XrlError) as excinfo:
            make_codec().decode_request(bytes(frame))
        assert excinfo.value.code == XrlErrorCode.BAD_ARGS

    @pytest.mark.parametrize("make_codec", CODECS)
    def test_list_depth_bound(self, make_codec):
        # 32 nested lists decode; one more is corrupt, whatever the stack
        header = make_codec().encode_request(1, "m/1.0/x", XrlArgs())[:-1]
        leaf = b"\x01\x01x\x07"
        for depth, ok in ((32, True), (33, False)):
            frame = header + b"\x01\x01l\x0e" * depth + leaf
            if ok:
                __, __, args = make_codec().decode_request(frame)
                assert len(args.get_list("l")) == 1
                continue
            with pytest.raises(XrlError) as excinfo:
                make_codec().decode_request(frame)
            assert excinfo.value.code == XrlErrorCode.BAD_ARGS

    @pytest.mark.parametrize("make_codec", CODECS)
    def test_deep_list_nesting_is_structured_error(self, make_codec):
        # header + (count 1, name "l", list tag) x 5000 + one bool atom
        header = make_codec().encode_request(1, "m/1.0/x", XrlArgs())[:-1]
        frame = header + b"\x01\x01l\x0e" * 5000 + b"\x01\x01x\x07"
        with pytest.raises(XrlError) as excinfo:
            make_codec().decode_request(frame)
        assert excinfo.value.code == XrlErrorCode.BAD_ARGS


# -- method interning ---------------------------------------------------------

class TestMethodInterning:
    def test_repeat_method_shrinks_to_reference(self):
        encoder = BinaryCodec()
        method = "k" * 16 + "/bgp/1.0/add_peer"
        args = XrlArgs().add_u32("x", 1)
        first = encoder.encode_request(1, method, args)
        second = encoder.encode_request(2, method, args)
        assert len(second) < len(first)
        # both codecs carry the same atom section; textual puts a 6-byte
        # header and the method string in front of it
        textual = TEXTUAL.encode_request(1, method, args)
        atom_section = len(textual) - 6 - len(method)
        assert len(second) - atom_section <= 6

    def test_paired_decoder_follows_the_table(self):
        encoder, decoder = BinaryCodec(), BinaryCodec()
        for seq, method in enumerate(["a/1.0/x", "b/1.0/y", "a/1.0/x",
                                      "b/1.0/y", "a/1.0/x"]):
            frame = encoder.encode_request(seq, method, XrlArgs())
            seq2, method2, __ = decoder.decode_request(frame)
            assert (seq2, method2) == (seq, method)

    @given(st.lists(st.sampled_from(["m/1/a", "m/1/b", "m/1/c"]),
                    min_size=1, max_size=12))
    def test_interning_stream_round_trips(self, stream):
        encoder, decoder = BinaryCodec(), BinaryCodec()
        for seq, method in enumerate(stream):
            decoded = decoder.decode_request(
                encoder.encode_request(seq, method, XrlArgs()))
            assert decoded[1] == method

    def test_dangling_reference_is_structured_error(self):
        encoder = BinaryCodec()
        encoder.encode_request(1, "m/1/a", XrlArgs())  # interned: id 1
        frame = encoder.encode_request(2, "m/1/a", XrlArgs())
        # A fresh decoder has an empty table: the reference must fail
        # as BAD_ARGS, not IndexError.
        with pytest.raises(XrlError) as excinfo:
            BinaryCodec().decode_request(frame)
        assert excinfo.value.code == XrlErrorCode.BAD_ARGS


# -- negotiation --------------------------------------------------------------

class TestNegotiation:
    @given(st.lists(st.sampled_from(["binary", "textual", "zstd"]),
                    max_size=3))
    def test_hello_round_trip(self, codecs):
        assert decode_hello(encode_hello(codecs)) == codecs

    @given(st.binary(max_size=40))
    def test_garbage_hello_raises_or_decodes(self, junk):
        try:
            codecs = decode_hello(junk)
        except XrlError:
            return
        assert isinstance(codecs, list)

    @given(st.lists(st.sampled_from(["binary", "textual", "zstd"]),
                    max_size=3),
           st.lists(st.sampled_from(["binary", "textual", "zstd"]),
                    max_size=3))
    def test_choice_is_common_or_textual_floor(self, local, remote):
        chosen = choose_codec(local, remote)
        if chosen != "textual":
            assert chosen in local and chosen in remote
        assert chosen in CODEC_PREFERENCE

    def test_binary_preferred_when_shared(self):
        assert choose_codec(("binary", "textual"),
                            ["textual", "binary"]) == "binary"
        assert choose_codec(("textual",), ["binary", "textual"]) == "textual"

    def test_make_codec(self):
        assert isinstance(make_codec("binary"), BinaryCodec)
        assert make_codec("textual") is TEXTUAL
        fresh_a, fresh_b = make_codec("binary"), make_codec("binary")
        assert fresh_a is not fresh_b  # interning state is per-connection
