"""WindowJournal: the recovery substrate's bookkeeping contract."""

import pytest

from repro.shard import BoundaryMessage, WindowJournal

#: Wider than any test records, unless a test is about eviction.
LIMIT = 64


def msg(seq, due=100):
    return BoundaryMessage(
        src="node-0", dst="node-1", kind="ping",
        sent_at=0, deliver_at=due, seq=seq,
    )


def record_windows(journal, count, shards=2):
    for index in range(count):
        batches = [[] for _ in range(shards)]
        batches[index % shards].append(msg(index))
        journal.record(index, (index + 1) * 10, batches)


class TestRecording:
    def test_windows_must_be_contiguous_from_zero(self):
        journal = WindowJournal(2, limit=LIMIT)
        with pytest.raises(ValueError, match="expected window 0"):
            journal.record(1, 10, [[], []])
        journal.record(0, 10, [[], []])
        with pytest.raises(ValueError, match="expected window 1"):
            journal.record(0, 10, [[], []])

    def test_one_batch_per_shard_enforced(self):
        journal = WindowJournal(3, limit=LIMIT)
        with pytest.raises(ValueError, match="one batch per shard"):
            journal.record(0, 10, [[], []])

    def test_counters_track_windows_and_messages(self):
        journal = WindowJournal(2, limit=LIMIT)
        record_windows(journal, 5)
        assert journal.windows_recorded == 5
        assert journal.messages_recorded == 5
        assert journal.evicted == 0

    def test_invalid_construction_rejected(self):
        with pytest.raises(ValueError, match="shards"):
            WindowJournal(0, limit=LIMIT)
        with pytest.raises(ValueError, match="limit"):
            WindowJournal(2, limit=0)


class TestBounding:
    def test_eviction_honours_limit_and_marks_truncation(self):
        journal = WindowJournal(2, limit=3)
        record_windows(journal, 5)
        assert len(journal) == 3
        assert journal.evicted == 2
        assert not journal.complete
        assert journal.first_index == 2
        # The monotone totals are unaffected by eviction.
        assert journal.windows_recorded == 5

    def test_journal_at_its_limit_stays_complete(self):
        journal = WindowJournal(2, limit=3)
        record_windows(journal, 3)
        assert journal.complete
        assert len(journal) == 3
        assert journal.first_index == 0
        # The next window evicts exactly one: the oldest.
        journal.record(3, 40, [[], []])
        assert not journal.complete
        assert len(journal) == 3
        assert journal.evicted == 1
        assert journal.first_index == 1


class TestReplay:
    def test_per_shard_replay_projects_one_batch(self):
        journal = WindowJournal(2, limit=LIMIT)
        record_windows(journal, 4)
        entries = list(journal.replay(shard=0, upto=4))
        assert [index for index, _, _ in entries] == [0, 1, 2, 3]
        assert [until for _, until, _ in entries] == [10, 20, 30, 40]
        for index, _until, batch in entries:
            expected = 1 if index % 2 == 0 else 0
            assert len(batch) == expected

    def test_upto_bounds_the_horizon(self):
        journal = WindowJournal(2, limit=LIMIT)
        record_windows(journal, 6)
        assert [i for i, _, _ in journal.replay(shard=0, upto=3)] == [0, 1, 2]
        assert list(journal.replay(shard=0, upto=0)) == []

    def test_truncated_journal_refuses_replay(self):
        journal = WindowJournal(2, limit=2)
        record_windows(journal, 4)
        with pytest.raises(ValueError, match="truncated"):
            list(journal.replay(shard=0, upto=4))

    def test_empty_journal_is_falsy_but_replays_nothing(self):
        # An empty journal is falsy (len 0): code holding an optional
        # journal must test ``is None``, not truthiness.
        journal = WindowJournal(2, limit=LIMIT)
        assert not journal
        assert list(journal.replay(shard=0, upto=0)) == []
