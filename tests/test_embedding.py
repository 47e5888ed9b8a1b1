"""The one-hot-row key of the sensitive embedder against the old keying.

embedding_reference.py keeps the label-tuple table and the row-order context
loop. Here both are run on random sensitive layouts (1-3 attributes of 2-5
categories each) in both input modes, and every array is compared bit for
bit.
"""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import embedding_reference as ref
from minifair.autoencoder import build_embedding_table, embed, pretrain
from net_params import param_arrays


@st.composite
def sensitive_layouts(draw):
    sizes = tuple(draw(st.lists(st.integers(2, 5), min_size=1, max_size=3)))
    n = draw(st.integers(6, 40))
    seed = draw(st.integers(0, 2**32 - 1))
    mode = draw(st.sampled_from(["sensitive_only", "all_features"]))
    d = draw(st.integers(1, 4))
    return sizes, n, seed, mode, d


def bits(a):
    return np.ascontiguousarray(a).tobytes()


@given(sensitive_layouts())
@settings(max_examples=60, deadline=None)
def test_one_hot_key_matches_label_tuple_keying(layout):
    sizes, n, seed, mode, d = layout
    rng = np.random.default_rng(seed)
    # some categories may go unseen, and combinations repeat in any order
    blocks = [np.eye(size)[rng.integers(0, size, size=n)] for size in sizes]
    S = np.hstack(blocks)
    # magnitudes over seven decades, so a different summation order shows
    X = rng.normal(size=(n, d)) * 10.0 ** rng.integers(-3, 4, size=(n, d))

    ae = pretrain(S, e=1, epochs=1, seed=seed % 1000, X=X, input_mode=mode)
    core = ref.fit_core(S, 1, 1, seed % 1000, X if mode == "all_features" else None)
    for got, want in zip(param_arrays(ae.core.encoder), param_arrays(core.encoder)):
        assert bits(got) == bits(want)

    context = ref.combo_context(S, X) if mode == "all_features" else None
    if context is not None:
        assert list(ae.combos) == list(context)
        for key, i in ae.combos.items():
            assert bits(ae.context[i]) == bits(context[key])

    assert bits(embed(ae, S)) == bits(ref.embed(ae.core.encoder, S, context))

    table = build_embedding_table(ae, S)
    ref_table = ref.build_table(ae.core.encoder, S, sizes, context)
    assert len(table.combos) == len(ref_table)
    shuffled = S[rng.permutation(n)]
    for rows in (S, shuffled, S[:1]):
        want = ref.lookup_rows(ref_table, rows, sizes, 1)
        assert bits(table.lookup_rows(rows)) == bits(want)
