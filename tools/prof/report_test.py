#!/usr/bin/env python3
"""Checks report.py's symbol lookup on a synthetic `nm -n -S` table.

    python3 tools/prof/report_test.py

A stripped library keeps only its exported symbols, so a sample in its
unexported code must not take the name of the export before it: an
address at or past the end of a sized symbol is charged to the file.
"""

import os
import sys
import tempfile
import unittest

sys.dont_write_bytecode = True  # leave no __pycache__ in the source tree
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import report  # noqa: E402

# nm prints "address size type name" for a sized symbol and leaves the size
# out when it is zero; demangled names can hold spaces.
NM = """\
0000000000000000 A GLIBC_2.2.5
0000000000001000 000000000000000d T __nss_database_lookup@GLIBC_2.2.5
0000000000001100 T _init
0000000000002000 0000000000000100 t picloud::{anon}::f(int, double)
0000000000002100 0000000000000040 D some_table
0000000000003000 0000000000000020 W std::vector<int>::size() const
"""


def symbols():
    syms = report.Symbols()
    syms.add_nm(NM)
    syms.relative = True
    return syms


class LookupTest(unittest.TestCase):
    def test_inside_a_sized_symbol(self):
        syms = symbols()
        self.assertEqual(syms.lookup(0x1000),
                         "__nss_database_lookup@GLIBC_2.2.5")
        self.assertEqual(syms.lookup(0x100c),
                         "__nss_database_lookup@GLIBC_2.2.5")

    def test_past_the_end_of_a_sized_symbol(self):
        syms = symbols()
        self.assertIsNone(syms.lookup(0x100d))
        self.assertIsNone(syms.lookup(0x10ff))

    def test_an_unsized_symbol_reaches_the_next(self):
        syms = symbols()
        self.assertEqual(syms.lookup(0x1100), "_init")
        self.assertEqual(syms.lookup(0x1fff), "_init")

    def test_names_with_spaces(self):
        syms = symbols()
        self.assertEqual(syms.lookup(0x20ff),
                         "picloud::{anon}::f(int, double)")
        self.assertEqual(syms.lookup(0x3010), "std::vector<int>::size() const")

    def test_data_symbols_are_not_functions(self):
        syms = symbols()
        self.assertIsNone(syms.lookup(0x2100))
        self.assertIsNone(syms.lookup(0x2fff))

    def test_before_the_first_symbol(self):
        self.assertIsNone(symbols().lookup(0xfff))


class ChargeTest(unittest.TestCase):
    def test_uncovered_leaf_is_charged_to_the_file(self):
        lib = "/lib/libfake.so.6"
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "picloud_prof.1.stacks")
            with open(path, "w") as f:
                f.write(f"map 7f0000000000 7f0000010000 0 {lib}\n")
                # Leaf past the 13-byte export; its caller inside f().
                f.write("sample 7f0000001050 7f0000002011\n")
            stacks = report.Process(path).symbolize({lib: symbols()})
        self.assertEqual(stacks, [["libfake.so.6",
                                   "picloud::{anon}::f(int, double)"]])


if __name__ == "__main__":
    unittest.main()
