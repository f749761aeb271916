"""R004 fixture: an engine with ``feed`` but no batch/snapshot surface."""


class HalfEngine:
    def __init__(self, pattern):
        self.pattern = pattern

    def _run(self, elements, marks=None):
        return []

    def feed(self, element):  # line 11: all four findings anchor here
        return self._run((element,))
