"""Edge identifiers: packing ancestry-label pairs into field elements.

Section 7.2 of the paper assigns every non-tree edge ``(u, v)`` the identifier
``L_anc(u) ∘ L_anc(v)``, i.e. the concatenation of the ancestry labels of its
endpoints, and builds the outdetect labeling over that identifier domain.
Recovering an edge identifier from a syndrome therefore immediately tells the
decoder which fragments the edge connects — no access to the graph is needed.

:class:`EdgeIdCodec` realizes the identifier domain as the non-zero elements of
a field GF(2^w).  Two packings are supported:

``full``
    Packs both complete ancestry labels ``(pre_u, post_u, pre_v, post_v)``,
    exactly as in the paper.
``compact``
    Packs only ``(pre_u, pre_v)``.  The query algorithm only ever needs the
    pre-order of an endpoint (to locate its fragment via interval containment),
    so this halves the field width — a constant-factor engineering
    optimization.  It is the default.
"""

from __future__ import annotations

from repro.gf2.field import GF2m
from repro.labeling.ancestry import AncestryLabel


class EdgeIdCodec:
    """Bijective map between endpoint-label pairs and non-zero field elements."""

    MODES = ("compact", "full")

    def __init__(self, max_label_value: int, mode: str = "compact", min_width: int = 2):
        """Create a codec.

        Parameters
        ----------
        max_label_value:
            Exclusive upper bound on any pre/post value of the ancestry
            labeling (``AncestryLabeling.max_value()``).
        mode:
            ``"compact"`` or ``"full"`` (see module docstring).
        min_width:
            Lower bound on the field width (useful for tests).
        """
        if mode not in self.MODES:
            raise ValueError("unknown edge-id mode %r" % (mode,))
        if max_label_value < 1:
            raise ValueError("max_label_value must be positive")
        self.mode = mode
        self.modulus = max_label_value
        # +1 for the shift that keeps identifiers non-zero.
        width = max(min_width, self._required_width(max_label_value, mode))
        self.field = GF2m(width)

    @staticmethod
    def _required_width(max_label_value: int, mode: str) -> int:
        if mode == "compact":
            domain_size = max_label_value ** 2
        else:
            domain_size = max_label_value ** 4
        return (domain_size + 1).bit_length()

    @classmethod
    def for_field(cls, max_label_value: int, mode: str, field: GF2m) -> "EdgeIdCodec":
        """A codec over an explicitly provided field (snapshot rehydration).

        Skips the irreducible-polynomial search of the normal constructor —
        the field (width *and* modulus) comes from the stored artifact — but
        still validates that it can hold the identifier domain.
        """
        if mode not in cls.MODES:
            raise ValueError("unknown edge-id mode %r" % (mode,))
        if max_label_value < 1:
            raise ValueError("max_label_value must be positive")
        needed = cls._required_width(max_label_value, mode)
        if field.width < needed:
            raise ValueError("field width %d cannot hold the %s edge-id domain "
                             "of modulus %d (needs %d bits)"
                             % (field.width, mode, max_label_value, needed))
        codec = cls.__new__(cls)
        codec.mode = mode
        codec.modulus = max_label_value
        codec.field = field
        return codec

    # -------------------------------------------------------------- encoding

    def encode(self, label_u: AncestryLabel, label_v: AncestryLabel) -> int:
        """Encode an ordered endpoint pair into a non-zero field element."""
        self._check(label_u)
        self._check(label_v)
        modulus = self.modulus
        if self.mode == "compact":
            packed = label_u.pre * modulus + label_v.pre
        else:
            packed = ((label_u.pre * modulus + label_u.post) * modulus + label_v.pre) * modulus + label_v.post
        return packed + 1

    def decode(self, identifier: int) -> tuple[int, int] | tuple[AncestryLabel, AncestryLabel]:
        """Decode an identifier back into endpoint information.

        In ``compact`` mode the result is the pair ``(pre_u, pre_v)``; in
        ``full`` mode it is the pair of complete :class:`AncestryLabel`s.
        """
        if identifier <= 0:
            raise ValueError("identifiers are positive (zero is the formal zero)")
        packed = identifier - 1
        modulus = self.modulus
        if self.mode == "compact":
            pre_u, pre_v = divmod(packed, modulus)
            if pre_u >= modulus:
                raise ValueError("identifier %d is outside the compact domain" % identifier)
            return (pre_u, pre_v)
        post_v = packed % modulus
        packed //= modulus
        pre_v = packed % modulus
        packed //= modulus
        post_u = packed % modulus
        packed //= modulus
        pre_u = packed
        if pre_u >= modulus:
            raise ValueError("identifier %d is outside the full domain" % identifier)
        return (AncestryLabel(pre_u, post_u), AncestryLabel(pre_v, post_v))

    def endpoint_preorders(self, identifier: int) -> tuple[int, int]:
        """Return ``(pre_u, pre_v)`` regardless of the packing mode."""
        decoded = self.decode(identifier)
        if self.mode == "compact":
            return decoded  # type: ignore[return-value]
        label_u, label_v = decoded  # type: ignore[misc]
        return (label_u.pre, label_v.pre)

    def is_plausible(self, identifier: int) -> bool:
        """Cheap sanity check used for decode-failure detection."""
        if identifier <= 0 or not self.field.contains(identifier):
            return False
        try:
            self.decode(identifier)
        except ValueError:
            return False
        return True

    def bit_size(self) -> int:
        """Number of bits of one identifier (== the field width)."""
        return self.field.width

    # ---------------------------------------------------------------- helpers

    def _check(self, label: AncestryLabel) -> None:
        if not (0 <= label.pre < self.modulus and 0 <= label.post < self.modulus):
            raise ValueError("ancestry label %r exceeds the codec modulus %d"
                             % (label, self.modulus))
