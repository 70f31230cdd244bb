"""Seeded fuzzing of the public parsers: only ``KchError`` may escape.

Each parser sees random token soup and small mutations of valid texts.  PD
codes also come as random pairings of arc labels, and every parse with at
most four crossings goes on through ``homfly``, which runs the skein
recursion and its diagram edits on diagrams nobody wrote by hand.  Every
token list holds a number longer than Python converts to an int.
"""

import random
from importlib import resources

from kch.dga import bundled_names, load_dga_text
from kch.errors import KchError
from kch.homfly import BUNDLED_DIAGRAMS, homfly
from kch.laurent import parse_polynomial
from kch.pd import parse_pd
from kch.scalars import parse_scalar

HUGE = "7" * 5000
PD_TOKENS = ["X[", "]", ",", ";", "UNKNOT", " ", "0", "1", "2", "3", "4", "12", "-", "x", "[", HUGE]
POLY_TOKENS = ["X", "Q", "P", "a", "i", "^", "-", "+", "*", "/", "(", ")", " ", "0", "1", "2", "7", "3i", "^-", HUGE]
SCALAR_TOKENS = ["0", "1", "2", "9", "/", "+", "-", "i", "(", ")", " ", ".", "e", HUGE]
DGA_TOKENS = ['"', "{", "}", "[", "]", ",", ":", " ", "0", "1", "-", "1.5", "true", "null", "i", "_w", "\u00e9", "(1+i)", "^", HUGE]
VALID_POLYS = ["1 - X - P + Q*X*P", "(2+3i)*X^-2 + 1/2*Q", "-P^3 + X*Q^-1", "0"]
VALID_SCALARS = ["1/2", "-3", "(2+3i)", "(1/2-i)", "0", "i"]


def soup(rng, tokens):
    return "".join(rng.choice(tokens) for _ in range(rng.randint(0, 12)))


def mutate(rng, text, tokens):
    chars = list(text)
    for _ in range(rng.randint(1, 3)):
        position = rng.randint(0, len(chars))
        action = rng.randrange(3)
        if action == 0 or not chars:
            chars.insert(position, rng.choice(tokens))
        elif action == 1:
            del chars[min(position, len(chars) - 1)]
        else:
            chars[min(position, len(chars) - 1)] = rng.choice(tokens)
    return "".join(chars)


def random_pairing(rng):
    """Up to four crossings whose arc labels each occur twice."""
    crossings = rng.randint(1, 4)
    labels = [label for label in range(1, 2 * crossings + 1) for _ in range(2)]
    rng.shuffle(labels)
    statements = [
        "X[" + ",".join(map(str, labels[4 * k : 4 * k + 4])) + "]" for k in range(crossings)
    ]
    statements += ["UNKNOT"] * rng.randint(0, 1)
    return ";".join(statements)


def escapes(parse, texts):
    """Texts on which ``parse`` raised something other than ``KchError``."""
    out = []
    for text in texts:
        try:
            parse(text)
        except KchError:
            pass
        except Exception as exc:  # the escape under test
            out.append((text, repr(exc)))
    return out


def pd_then_homfly(text):
    diagram = parse_pd(text)
    if diagram.crossing_count <= 4:
        homfly(diagram)


def test_pd_parser_and_skein_recursion():
    rng = random.Random("fuzz-pd")
    valid = list(BUNDLED_DIAGRAMS.values())
    texts = []
    for _ in range(8000):
        kind = rng.randrange(3)
        if kind == 0:
            texts.append(random_pairing(rng))
        elif kind == 1:
            texts.append(mutate(rng, rng.choice(valid), PD_TOKENS))
        else:
            texts.append(soup(rng, PD_TOKENS))
    assert escapes(pd_then_homfly, texts) == []


def test_polynomial_parser():
    rng = random.Random("fuzz-polynomial")
    texts = [
        mutate(rng, rng.choice(VALID_POLYS), POLY_TOKENS) if rng.random() < 0.5
        else soup(rng, POLY_TOKENS)
        for _ in range(6000)
    ]
    assert escapes(lambda text: parse_polynomial(text, ("Q", "X", "P")), texts) == []


def test_scalar_parser():
    rng = random.Random("fuzz-scalar")
    texts = [
        mutate(rng, rng.choice(VALID_SCALARS), SCALAR_TOKENS) if rng.random() < 0.5
        else soup(rng, SCALAR_TOKENS)
        for _ in range(6000)
    ]
    assert escapes(parse_scalar, texts) == []


def test_dga_loader():
    rng = random.Random("fuzz-dga")
    documents = [
        resources.files("kch").joinpath("data", f"{name}.dga.json").read_text(encoding="utf-8")
        for name in bundled_names()
    ]
    texts = [mutate(rng, rng.choice(documents), DGA_TOKENS) for _ in range(20000)]
    assert escapes(load_dga_text, texts) == []
