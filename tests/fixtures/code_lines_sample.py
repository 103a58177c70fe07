"""A module docstring
spanning three lines: none of them counts.
"""

# A comment line does not count; neither do blank lines.

import os  # 1: code, even with a trailing comment


class Sample:  # 2
    """A class docstring does not count."""

    LIMIT = 3  # 3

    def method(self):  # 4
        """A method docstring,
        on two lines, does not count."""
        text = """5: a string that is not a docstring
6: counts on every line it covers"""
        return text, os.sep  # 7


def function(  # 8
    first,  # 9
    second,  # 10
):  # 11
    return first + second  # 12
