"""Negative fixture: an engine every rule accepts."""


class CleanEngine:
    def __init__(self, pattern):
        self.pattern = pattern
        self._buffer = []

    def _process_event(self, event):
        self._buffer.append(event)
        return []

    def feed(self, element):
        return self._process_event(element)

    def feed_batch(self, elements):
        out = []
        for element in elements:
            out.extend(self.feed(element))
        return out

    def feed_colbatch(self, batch):
        return self.feed_batch(batch.to_events())

    def snapshot(self):
        return {"buffer": list(self._buffer)}

    def restore(self, state):
        self._buffer = list(state["buffer"])

    def purge_through(self, horizon):
        self._buffer = [event for event in self._buffer if event[0] > horizon]
