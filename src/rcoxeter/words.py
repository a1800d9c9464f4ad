"""The word problem: shortlex normal forms and the group operations.

A group element is represented by its shortlex normal form: the unique
word over the generator indices that is a geodesic (no shorter word spells
the same element) and is lexicographically least among the geodesics that
do.  Words are plain tuples of generator indices; the empty tuple is the
identity.  Every function here that returns a word returns a normal form.

Normalization is a single left-to-right pass that keeps its output a
normal form after every letter.  All geodesics of an element differ only
by swaps of commuting letters, so an element is a heap of pieces and its
normal form is the greedy, lexicographically least way to read the heap
off from the bottom.  Appending a generator ``g`` touches only the suffix
of letters that commute with ``g``: it cancels against an occurrence of
``g`` right before that suffix (the only way the product can shorten) or
slides into the suffix in front of its leftmost larger letter.  A letter
costs one bitmask step per letter of that commuting suffix: one step in
free products such as ``dinfty``, where no two generators commute, and
never more than the length of the word, so a word of length k costs
O(k) steps there and O(k^2) at worst.  The step lives in the loop of
``multiply`` alone, which also rejects a letter out of range; every other
operation here goes through it.
"""

from __future__ import annotations

from .graphs import DefiningGraph, UnknownLabelError

#: A group element: a shortlex-normal word of generator indices.
Word = tuple[int, ...]

#: The identity element.
IDENTITY: Word = ()


def normal_form(letters, graph: DefiningGraph) -> Word:
    """Shortlex normal form of the element spelled by ``letters``.

    >>> from .graphs import preset
    >>> g = preset("square")
    >>> normal_form((0, 0), g)
    ()
    >>> normal_form((1, 0), g)  # a and b commute, so "ba" normalizes to "ab"
    (0, 1)
    """
    return multiply(IDENTITY, letters, graph)


def multiply(x: Word, y: Word, graph: DefiningGraph) -> Word:
    """Normal form of the product x*y.

    ``x`` must already be a normal form, since it seeds the word each letter
    of ``y`` is appended to; ``y`` may be any word over the generators, and
    a letter outside 0..n-1 raises ``ValueError``.

    Appending ``g`` scans from the right over the letters commuting with
    ``g``, noting the leftmost one larger than ``g``.  If the letter that
    stops the scan is ``g`` itself, nothing after it lies above it in the
    heap, so deleting it leaves the greedy order of the rest unchanged.
    Otherwise ``g`` becomes available right after that letter, and the
    greedy choice takes it in front of the leftmost larger letter of the
    suffix, or last if there is none.
    """
    masks = graph.neighbor_masks
    out = list(x)
    for g in y:
        try:
            if g < 0:
                raise IndexError
            gmask = masks[g]
        except IndexError:
            raise ValueError(f"generator index {g} out of range for {graph!r}") from None
        i = at = len(out)
        while i:
            letter = out[i - 1]
            if not gmask >> letter & 1:
                break
            i -= 1
            if letter > g:
                at = i
        if i and out[i - 1] == g:
            del out[i - 1]
        else:
            out.insert(at, g)
    return tuple(out)


def inverse(x: Word, graph: DefiningGraph) -> Word:
    """Normal form of the inverse; every generator is its own inverse."""
    return normal_form(reversed(x), graph)


def length(x: Word) -> int:
    """Word length, i.e. the distance from the identity in the Cayley graph."""
    return len(x)


def conjugate(g: Word, x: Word, graph: DefiningGraph) -> Word:
    """Normal form of g^-1 * x * g."""
    return multiply(IDENTITY, (*reversed(g), *x, *g), graph)


def support(x: Word) -> frozenset[int]:
    """The set of generators occurring in the normal form.

    All geodesics of an element use the same letter set, so this does not
    depend on the chosen representative.
    """
    return frozenset(x)


def has_order_two(x: Word, graph: DefiningGraph) -> bool:
    """True exactly when x is a nontrivial involution."""
    return x != IDENTITY and multiply(x, x, graph) == IDENTITY


def parse_word(text: str, graph: DefiningGraph) -> Word:
    """Parse a word from its command-line spelling and normalize it.

    Labels may be separated by spaces, or run together when every label is
    a single character.  ``e`` denotes the empty word as long as no
    generator is labelled ``e``; the empty string always does.
    """
    text = text.strip()
    if not text:
        return IDENTITY
    if text == "e" and "e" not in graph.labels:
        return IDENTITY
    parts = text.split()
    if len(parts) == 1 and parts[0] not in graph.labels:
        if all(len(label) == 1 for label in graph.labels):
            parts = list(parts[0])
        else:
            raise UnknownLabelError(f"unknown generator label {parts[0]!r}")
    return normal_form((graph.index(part) for part in parts), graph)


def word_to_text(word: Word, graph: DefiningGraph) -> str:
    """Space-joined labels of a word; the identity is the empty string."""
    return " ".join(graph.labels[g] for g in word)
