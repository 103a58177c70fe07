"""A page's kept decode is patched by slot after a write.

``Page.decoded`` keeps what a page decoder made of the page's records.  A
write stamps the slot it wrote with the page's write count, so the next read
hands the decoder only the records written since, in one call, and splices
their rows into copies of the kept lists — unless the writes since number
more than one in eight of the kept rows (a slot written twice counts twice),
when the page is decoded whole.  Each test here counts what the decoder is
handed, and compares the result with a fresh decode of the page's records.
"""

from repro.engine.page import Page
from repro.engine.rows import encode_row
from repro.engine.schema import Column, TableSchema
from repro.engine.types import FLOAT, INTEGER, char

SCHEMA = TableSchema(
    "t", [Column("k", INTEGER), Column("name", char(12)), Column("x", FLOAT)]
)


def record(k: int, name: str = "row", x: float | None = 0.5) -> bytes:
    return encode_row(SCHEMA, SCHEMA.validate_values([k, name, x]))


class Counting:
    """A page decoder that records the records it is handed, call by call."""

    def __init__(self, positions=None):
        codec = SCHEMA.codec
        self.decode = (
            codec.decode_page if positions is None else codec.page_decoder(positions)
        )
        self.calls: list[list[bytes]] = []

    def __call__(self, records):
        self.calls.append(list(records))
        return self.decode(records)

    def fresh(self, page: Page):
        """What decoding the page's records afresh gives."""
        slots, records = page.records()
        return slots, self.decode(records)


def filled(rows: int) -> Page:
    page = Page(SCHEMA.record_size)
    for k in range(rows):
        page.insert(record(k))
    return page


def test_an_overwrite_hands_the_decoder_that_record_alone():
    page, decode = filled(40), Counting()
    assert page.decoded(decode) == decode.fresh(page)
    new = record(7, "seven", None)
    page.overwrite(7, new)
    assert page.decoded(decode) == decode.fresh(page)
    assert decode.calls[1:] == [[new]]
    # Read again unwritten: nothing is decoded.
    page.decoded(decode)
    assert len(decode.calls) == 2


def test_a_narrow_decoder_is_patched_the_same_way():
    page, decode = filled(40), Counting((1,))
    page.decoded(decode)
    page.overwrite(30, record(30, "thirty"))
    slots, rows = page.decoded(decode)
    assert (slots, rows) == decode.fresh(page)
    assert rows[30] == ("thirty",) and decode.calls[1:] == [[record(30, "thirty")]]


def test_a_delete_and_an_insert_into_the_freed_slot_splice_in_slot_order():
    page, decode = filled(40), Counting()
    page.decoded(decode)
    page.delete(3)
    page.delete(20)
    slots, _rows = page.decoded(decode)
    assert 3 not in slots and 20 not in slots
    assert (slots, _rows) == decode.fresh(page)
    assert decode.calls[-1] == []  # a freed slot leaves; nothing to decode
    # The page fills its first free slot again: slot 3, between 2 and 4.
    assert page.insert(record(99)) == 3
    slots, rows = page.decoded(decode)
    assert slots[2:5] == [2, 3, 4] and rows[3][0] == 99
    assert (slots, rows) == decode.fresh(page)
    assert decode.calls[-1] == [record(99)]
    # Redo places a record at its own slot, past the others too.
    page.insert_at(20, record(120))
    page.insert_at(45, record(145))
    slots, rows = page.decoded(decode)
    assert (slots, rows) == decode.fresh(page)
    assert slots[-1] == 45 and rows[20][0] == 120
    assert decode.calls[-1] == [record(120), record(145)]


def test_more_than_one_in_eight_written_decodes_the_whole_page():
    page, decode = filled(16), Counting()
    page.decoded(decode)
    page.overwrite(1, record(101))
    page.overwrite(9, record(109))  # two of sixteen: patched
    assert page.decoded(decode) == decode.fresh(page)
    assert decode.calls[-1] == [record(101), record(109)]
    for slot in (2, 5, 11):  # three of sixteen: the whole page
        page.overwrite(slot, record(100 + slot))
    assert page.decoded(decode) == decode.fresh(page)
    assert len(decode.calls[-1]) == 16


def test_a_slot_written_again_is_decoded_once_and_counted_per_write():
    page, decode = filled(16), Counting()
    page.decoded(decode)
    page.overwrite(4, record(200))
    page.overwrite(4, record(201))  # two writes of sixteen: patched
    assert page.decoded(decode) == decode.fresh(page)
    assert decode.calls[-1] == [record(201)]
    for k in range(3):  # three writes, though of one slot: the whole page
        page.overwrite(4, record(300 + k))
    assert page.decoded(decode) == decode.fresh(page)
    assert len(decode.calls[-1]) == 16


def test_lists_handed_out_keep_their_contents():
    page, decode = filled(40), Counting()
    slots, rows = page.decoded(decode)
    copies = list(slots), list(rows)
    page.overwrite(0, record(1000))
    page.delete(12)
    page.insert(record(1012))
    page.insert(record(1040))
    patched = page.decoded(decode)
    assert patched == decode.fresh(page)
    assert (slots, rows) == copies
    assert patched[0] is not slots and patched[1] is not rows
    assert len(decode.calls) == 2 and len(decode.calls[-1]) == 3


def test_a_page_read_back_decodes_whole():
    page, decode = filled(40), Counting()
    page.decoded(decode)
    back = Page.from_bytes(page.to_bytes())
    assert back.decoded(decode) == decode.fresh(back)
    assert len(decode.calls[-1]) == 40
    back.overwrite(39, record(139))
    assert back.decoded(decode) == decode.fresh(back)
    assert decode.calls[-1] == [record(139)]


def test_what_is_kept_of_the_decode_follows_the_patch():
    page, decode = filled(40), Counting()
    assert page.column_values(decode, 0) == list(range(40))
    page.overwrite(10, record(-5))
    assert page.column_values(decode, 0) == [-5, *range(10), *range(11, 40)]
    assert decode.calls[-1] == [record(-5)]
