"""CART regression trees stored as flat node arrays.

One :class:`TreeArrays` holds one tree or a whole ensemble as parallel
arrays (``feature``, ``threshold``, ``left``, ``right``, ``value``), and
:func:`grow_trees` grows every tree of an ensemble in lockstep.  Split
search is vectorised across *nodes*: each step gathers a batch of nodes
into one padded block and scores every split position of every candidate
feature of every node with prefix sums.  When nodes draw their own feature
subsets the batch is the next depth-first node of every tree, so each
tree's draws still come from its own RNG in preorder; otherwise it is each
tree's whole pending frontier.  A tree draws the subsets of many nodes in
one bounded-integer call and replays from it, value for value, what one
``Generator.choice`` call per node would return (see :func:`_choice_rows`).

Every number is computed exactly as a node-by-node recursive CART would:
node totals are ``y.sum()`` and ``np.dot(y, y)`` over the node's own
contiguous targets in row order, prefix sums are row-wise cumsums over a
zero-padded block, features are padded with NaN so a stable argsort keeps
real values (NaN and inf included) ahead of the pads, and ties resolve to
the first position and the first drawn feature.
"""

from __future__ import annotations

import numpy as np

from .._validation import check_consistent_length
from ..core.base import BaseRegressor, check_is_fitted
from ..exceptions import InvalidParameterError

__all__ = ["DecisionTreeRegressor", "TreeArrays", "grow_trees", "resolve_max_features"]

#: A split must reduce the squared error by more than this.
_MIN_GAIN = 1e-12
#: Padded block elements worth one more split-search call (see
#: ``_size_groups``).
_PAD_SLACK = 4096
#: Most elements in one padded block (a single node may exceed it); about
#: a dozen float temporaries of this size are alive during a search.
_MAX_BLOCK = 1 << 20


def resolve_max_features(max_features, n_features: int) -> int:
    """Number of features each node draws (``n_features`` means all)."""
    if max_features is None:
        return n_features
    if isinstance(max_features, str):
        if max_features == "sqrt":
            return max(1, int(np.sqrt(n_features)))
        if max_features == "log2":
            return max(1, int(np.log2(n_features)))
        raise InvalidParameterError(
            f"Unknown max_features value {max_features!r}; expected 'sqrt' or 'log2'."
        )
    if isinstance(max_features, float) and not isinstance(max_features, bool):
        if not 0.0 < max_features <= 1.0:
            raise InvalidParameterError("Float max_features must be in (0, 1].")
        return max(1, int(round(max_features * n_features)))
    value = int(max_features)
    if value < 1:
        raise InvalidParameterError("max_features must be >= 1.")
    return min(value, n_features)


class TreeArrays:
    """Any number of regression trees as flat node arrays.

    Node ``i`` sends a row left when ``row[feature[i]] <= threshold[i]``
    (NaN goes right).  A leaf points at itself on both sides, so a walk of
    ``max_depth`` steps parks every row on its leaf.
    """

    def __init__(self, feature, threshold, left, right, value, roots, n_nodes, depths):
        self.feature = feature
        self.threshold = threshold
        self.left = left
        self.right = right
        self.value = value
        self.roots = roots
        self.n_nodes = n_nodes
        self.depths = depths
        self.max_depth = int(depths.max()) if len(depths) else 0
        self.min_features = int(feature.max()) + 1 if len(feature) else 0

    @classmethod
    def concat(cls, parts: list["TreeArrays"]) -> "TreeArrays":
        """Stack ensembles into one, keeping tree order."""
        offsets = np.cumsum([0] + [len(part.value) for part in parts[:-1]])
        join = np.concatenate
        return cls(
            join([part.feature for part in parts]),
            join([part.threshold for part in parts]),
            join([part.left + offset for part, offset in zip(parts, offsets)]),
            join([part.right + offset for part, offset in zip(parts, offsets)]),
            join([part.value for part in parts]),
            join([part.roots + offset for part, offset in zip(parts, offsets)]),
            join([part.n_nodes for part in parts]),
            join([part.depths for part in parts]),
        )

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Leaf values of every tree for every row, shape ``(trees, rows)``."""
        X = np.ascontiguousarray(X, dtype=float)
        if X.shape[1] < self.min_features:
            raise InvalidParameterError(
                f"X has {X.shape[1]} features; the trees split on feature {self.min_features - 1}."
            )
        node = np.repeat(self.roots[:, None], len(X), axis=1)
        if self.max_depth:
            flat_X = X.reshape(-1)
            row_offsets = np.arange(len(X)) * X.shape[1]
            feature, threshold, left, right = self.feature, self.threshold, self.left, self.right
            for _ in range(self.max_depth):
                goes_left = flat_X[row_offsets + feature[node]] <= threshold[node]
                node = np.where(goes_left, left[node], right[node])
        return self.value[node]


def grow_trees(
    X: np.ndarray,
    y: np.ndarray,
    rows: np.ndarray,
    *,
    max_depth: int | None,
    min_samples_split: int,
    min_samples_leaf: int,
    n_draw: int,
    rngs: list | None = None,
) -> TreeArrays:
    """Grow one tree per row of ``rows`` (row ids into ``X``/``y``).

    ``n_draw`` features are drawn without replacement at every split node
    from that tree's generator in ``rngs``, the features that
    ``rng.choice(n_features, n_draw, replace=False)`` would return; when it
    covers every feature no generator is touched and all features are
    scored.  A tree draws ahead for nodes it may never search, so each
    generator must serve this call alone.
    """
    n_trees, n_rows = rows.shape
    n_samples, n_features = X.shape
    depth_limit = np.inf if max_depth is None else int(max_depth)
    min_leaf = int(min_samples_leaf)
    min_split = max(int(min_samples_split), 2 * min_leaf)
    draws = None
    if n_draw < n_features:
        # With ``min_split >= 2`` a tree searches at most ``n_rows - 1``
        # nodes: each split adds a leaf, and a searched leaf keeps two rows.
        # A tree that runs out of drawn rows draws again.
        n_searched = n_rows - 1
        if max_depth is not None:
            n_searched = min(n_searched, 2 ** max(int(max_depth), 0) - 1)
        draws = _FeatureDraws(rngs, n_features, n_draw, n_searched)
    n_candidates = n_features if draws is None else n_draw
    all_features = np.arange(n_features)[None, :]

    # Row id ``n_samples`` is a pad: NaN features, zero target.  Each tree
    # owns ``n_rows`` slots of ``rows``; one more tree's worth of pads lets
    # a padded block read past the last segment.
    data = _Data(
        Xt=np.concatenate([X.T, np.full((n_features, 1), np.nan)], axis=1),
        y=np.append(y, 0.0),
        rows=np.concatenate([rows.reshape(-1), np.full(n_rows, n_samples)]).astype(np.intp),
        pad=n_samples,
        min_leaf=min_leaf,
        depth_limit=depth_limit,
    )
    flat_ys = data.targets

    # Node log in creation order; ``split`` holds (node, feature, threshold,
    # left, right) of every internal node.
    tree_of: list[int] = []
    depth_of: list[int] = []
    value_of: list[float] = []
    split: list[tuple[int, int, float, int, int]] = []
    stacks: list[list[tuple]] = [[] for _ in range(n_trees)]
    add_reduce, dot = np.add.reduce, np.dot

    def add_node(tree: int, offset: int, size: int, depth: int, constant: bool):
        """Log a node; return its pending-split entry unless it is a leaf.

        An entry is ``(offset, size, total, square_total, parent_sse, node,
        tree, depth)``: the node's segment of ``data.rows`` and its totals.
        """
        segment = flat_ys[offset : offset + size]
        total = add_reduce(segment)  # the bits of ``segment.sum()``
        tree_of.append(tree)
        depth_of.append(depth)
        value_of.append(float(total / size))
        if depth >= depth_limit or size < min_split or constant:
            return None
        square_total = float(dot(segment, segment))
        parent_sse = square_total - total**2 / size
        return (offset, size, total, square_total, parent_sse, len(value_of) - 1, tree, depth)

    # Targets near the float range overflow the totals and prefix sums to
    # inf or NaN; such a gain never wins, so growing need not warn.
    with np.errstate(over="ignore", invalid="ignore"):
        by_tree = flat_ys[: n_trees * n_rows].reshape(n_trees, n_rows)
        root_constant = (by_tree.max(axis=1) - by_tree.min(axis=1)) == 0.0
        for tree in range(n_trees):
            entry = add_node(tree, tree * n_rows, n_rows, 0, bool(root_constant[tree]))
            if entry is not None:
                stacks[tree].append(entry)

        while True:
            if draws is not None:
                batch = [stack.pop() for stack in stacks if stack]
            else:
                batch = [entry for stack in stacks for entry in stack]
                for stack in stacks:
                    stack.clear()
            if not batch:
                break
            if draws is not None:
                features = draws.take([entry[6] for entry in batch])
            for group in _size_groups([entry[1] for entry in batch], n_candidates):
                chosen = [batch[index] for index in group]
                outcomes = _split_nodes(
                    data, chosen, all_features if draws is None else features[group]
                )
                for entry, outcome in zip(chosen, outcomes):
                    if outcome is None:
                        continue
                    offset, size = entry[:2]
                    node, tree, depth = entry[5:]
                    feature, threshold, n_left, left_constant, right_constant = outcome
                    left = len(value_of)
                    left_entry = add_node(tree, offset, n_left, depth + 1, left_constant)
                    right_entry = add_node(
                        tree, offset + n_left, size - n_left, depth + 1, right_constant
                    )
                    split.append((node, feature, threshold, left, left + 1))
                    # Right below left: the left child is next in preorder.
                    for child in (right_entry, left_entry):
                        if child is not None:
                            stacks[tree].append(child)

    return _assemble(tree_of, depth_of, value_of, split, n_trees)


class _FeatureDraws:
    """Every tree's candidate features, node after node in preorder.

    Row ``i`` for tree ``t`` is what the ``i``-th
    ``rngs[t].choice(n_features, n_draw, replace=False)`` call returns.  A
    tree draws ``chunk`` rows at once, when it first needs one and again
    when it has used them all; ``chunk`` covers the nodes a tree can search
    (``n_searched``) unless that table would outgrow ``_MAX_BLOCK`` raw
    draws across the trees.
    """

    def __init__(self, rngs: list, n_features: int, n_draw: int, n_searched: int):
        self.rngs = rngs
        self.n_features = n_features
        self.n_draw = n_draw
        self.chunk = max(1, min(n_searched, _MAX_BLOCK // (len(rngs) * (2 * n_draw - 1))))
        self.table = np.empty((len(rngs), self.chunk, n_draw), dtype=np.int64)
        self.used = np.full(len(rngs), self.chunk)

    def take(self, trees: list[int]) -> np.ndarray:
        """Next row of each listed tree (each tree at most once)."""
        trees = np.asarray(trees, dtype=np.intp)
        slot = self.used[trees]
        spent = slot == self.chunk
        if spent.any():
            refill = trees[spent]
            rows = _choice_rows(
                [self.rngs[tree] for tree in refill], self.n_features, self.n_draw, self.chunk
            )
            self.table[refill] = rows.reshape(len(refill), self.chunk, self.n_draw)
            slot[spent] = 0
        self.used[trees] = slot + 1
        return self.table[trees, slot]


def _choice_rows(rngs: list, n: int, k: int, m: int) -> np.ndarray:
    """``m`` successive ``rng.choice(n, k, replace=False)`` of each generator,
    as ``(len(rngs) * m, k)`` rows, from one bounded-integer call per generator.

    Up to 10,000 features numpy runs Floyd's algorithm: for ``j = n-k ..
    n-1`` it draws ``v`` in ``[0, j]`` and picks ``v``, or ``j`` when ``v``
    is already picked; then for ``i = k-1 .. 1`` it swaps pick ``i`` with
    pick ``u``, ``u`` drawn in ``[0, i]``.  ``integers(0, highs)`` over an
    int64 array makes each of those bounded draws in the same order, so the
    rows and the generator's state afterwards are exactly ``choice``'s.
    Above 10,000 features with ``k > n // 50`` numpy shuffles a tail of
    ``arange(n)`` instead, and ``choice`` itself is called.
    """
    if n > 10_000 and k > n // 50:
        return np.array([rng.choice(n, k, replace=False) for rng in rngs for _ in range(m)])
    highs = np.tile(np.concatenate([np.arange(n - k + 1, n + 1), np.arange(k, 1, -1)]), m)
    raw = np.concatenate([rng.integers(0, highs) for rng in rngs]).reshape(-1, 2 * k - 1)
    picks = raw[:, :k].copy()
    for t in range(1, k):
        taken = (picks[:, :t] == picks[:, t, None]).any(axis=1)
        picks[taken, t] = n - k + t
    rows = np.arange(len(picks))
    for step, i in enumerate(range(k - 1, 0, -1)):
        swap = raw[:, k + step]
        held = picks[rows, swap]
        picks[rows, swap] = picks[:, i]
        picks[:, i] = held
    return picks


class _Data:
    """Growing state shared by every step: features by column, targets and
    each tree's rows, partitioned in place so every node owns a segment."""

    def __init__(self, Xt, y, rows, pad, min_leaf, depth_limit):
        self.Xt = Xt
        self.y = y
        self.rows = rows
        self.targets = y[rows]
        self.pad = pad
        self.min_leaf = min_leaf
        self.depth_limit = depth_limit


def _size_groups(sizes: list[int], n_candidates: int) -> list[list[int]]:
    """Batch positions in groups of similar size, largest first.

    Every group costs one padded split search.  Going down the sizes, a new
    group starts where narrowing the block to the current size saves more
    than ``_PAD_SLACK`` padded elements over the nodes still to come, or
    where the block would outgrow ``_MAX_BLOCK``.
    """
    width = max(sizes)
    if (width - min(sizes)) * n_candidates * len(sizes) <= _PAD_SLACK and (
        width * n_candidates * len(sizes) <= _MAX_BLOCK
    ):
        return [list(range(len(sizes)))]
    order = sorted(range(len(sizes)), key=sizes.__getitem__, reverse=True)
    groups = [[order[0]]]
    for remaining, index in zip(range(len(order) - 1, 0, -1), order[1:]):
        size = sizes[index]
        if (width - size) * n_candidates * remaining > _PAD_SLACK or (
            (len(groups[-1]) + 1) * width * n_candidates > _MAX_BLOCK
        ):
            groups.append([])
            width = size
        groups[-1].append(index)
    return groups


def _split_nodes(data: _Data, batch: list[tuple], features: np.ndarray) -> list:
    """Score, choose and apply the best split of every node in ``batch``.

    ``features`` holds each node's candidate features, or one shared row.
    Returns one ``(feature, threshold, n_left, left_constant,
    right_constant)`` per node, or None where the node stays a leaf.  The
    rows of a split node are partitioned in place, stably: its left child
    takes the front of its segment.
    """
    table = np.array(batch)
    offsets = table[:, 0].astype(np.intp)
    sizes = table[:, 1].astype(np.intp)
    n_nodes, n_candidates = len(batch), features.shape[1]
    width = int(sizes.max())

    position = np.arange(width)
    inside = position < sizes[:, None]
    segment = offsets[:, None] + position
    row_ids = np.where(inside, data.rows[segment], data.pad)
    targets = data.y[row_ids]
    values = data.Xt[features[:, :, None], row_ids[:, None, :]]

    # A stable sort of the values is the argsort-ordered sequence itself.
    order = np.argsort(values, axis=2, kind="stable")
    starts = (np.arange(n_nodes * n_candidates) * width).reshape(n_nodes, n_candidates, 1)
    x_sorted = values.reshape(-1)[order + starts]
    y_sorted = targets.reshape(-1)[order + (np.arange(n_nodes) * width)[:, None, None]]

    # Split after sorted position i: the left child takes i + 1 rows.
    left_counts = position[1:]
    right_counts = sizes[:, None, None] - left_counts
    left_sums = np.cumsum(y_sorted, axis=2)[:, :, :-1]
    left_sq_sums = np.cumsum(y_sorted**2, axis=2)[:, :, :-1]
    right_sums = table[:, 2, None, None] - left_sums
    right_sq_sums = table[:, 3, None, None] - left_sq_sums
    left_sse = left_sq_sums - left_sums**2 / left_counts
    right_sse = right_sq_sums - right_sums**2 / np.maximum(right_counts, 1)
    gains = table[:, 4, None, None] - (left_sse + right_sse)
    # Valid between distinct values (a NaN pad is never distinct, so the
    # last real position is out) when both children keep the leaf size.
    valid = x_sorted[:, :, 1:] - x_sorted[:, :, :-1] > 0
    if data.min_leaf > 1:
        valid &= (left_counts >= data.min_leaf) & (right_counts >= data.min_leaf)
    gains = np.where(valid, gains, -np.inf)

    best_position = gains.argmax(axis=2)
    best_gain = gains.max(axis=2)
    # First candidate with the largest gain above the floor; NaN never wins.
    best_gain = np.where(best_gain > _MIN_GAIN, best_gain, -np.inf)
    candidate = best_gain.argmax(axis=1)
    nodes = np.arange(n_nodes)
    cut = best_position[nodes, candidate]
    threshold = (x_sorted[nodes, candidate, cut] + x_sorted[nodes, candidate, cut + 1]) / 2.0
    goes_left = values[nodes, candidate] <= threshold[:, None]
    n_left = goes_left.sum(axis=1)
    # A midpoint that rounds onto one of its neighbours can send every row
    # to one side; such a node stays a leaf.
    splits = (best_gain.max(axis=1) > _MIN_GAIN) & (n_left > 0) & (n_left < sizes)
    if not splits.any():
        return [None] * n_nodes

    # Stable partition of every split node's segment, left rows first.
    moved = inside & splits[:, None]
    left_rank = np.cumsum(goes_left, axis=1)
    destination = (
        offsets[:, None] + np.where(goes_left, left_rank - 1, n_left[:, None] + position - left_rank)
    )[moved]
    data.rows[destination] = row_ids[moved]
    data.targets[destination] = targets[moved]

    if (table[:, 7] + 1 < data.depth_limit).any():
        left_constant = _constant(targets, goes_left)
        right_constant = _constant(targets, inside & ~goes_left)
    else:  # every child is a leaf by depth
        left_constant = right_constant = np.zeros(n_nodes, dtype=bool)
    chosen = features[nodes if len(features) > 1 else 0, candidate]
    return [
        (feature, threshold, n_left, left_const, right_const) if ok else None
        for ok, feature, threshold, n_left, left_const, right_const in zip(
            splits.tolist(), chosen.tolist(), threshold.tolist(), n_left.tolist(),
            left_constant.tolist(), right_constant.tolist(),
        )
    ]


def _constant(targets: np.ndarray, members: np.ndarray) -> np.ndarray:
    """Per row: do the member targets have zero range (``np.ptp == 0``)?"""
    return (
        np.where(members, targets, -np.inf).max(axis=1) - np.where(members, targets, np.inf).min(axis=1)
        == 0.0
    )


def _assemble(tree_of, depth_of, value_of, split, n_trees) -> TreeArrays:
    """Flat arrays with each tree's nodes contiguous, root first."""
    tree_of = np.asarray(tree_of, dtype=np.intp)
    order = np.argsort(tree_of, kind="stable")
    new_id = np.empty(len(order), dtype=np.intp)
    new_id[order] = np.arange(len(order))
    feature = np.zeros(len(order), dtype=np.intp)
    threshold = np.zeros(len(order))
    left = new_id.copy()
    right = new_id.copy()
    if split:
        node, split_feature, split_threshold, split_left, split_right = zip(*split)
        node = np.asarray(node, dtype=np.intp)
        feature[node] = split_feature
        threshold[node] = split_threshold
        left[node] = new_id[np.asarray(split_left, dtype=np.intp)]
        right[node] = new_id[np.asarray(split_right, dtype=np.intp)]
    n_nodes = np.bincount(tree_of, minlength=n_trees)
    depths = np.zeros(n_trees, dtype=np.intp)
    np.maximum.at(depths, tree_of, np.asarray(depth_of, dtype=np.intp))
    roots = (np.cumsum(n_nodes) - n_nodes).astype(np.intp)
    return TreeArrays(
        feature[order], threshold[order], left[order], right[order],
        np.asarray(value_of)[order], roots, n_nodes, depths,
    )


class DecisionTreeRegressor(BaseRegressor):
    """Regression tree minimising squared error.

    Parameters follow the scikit-learn conventions; ``max_features`` accepts
    an int, a float fraction, ``"sqrt"``, ``"log2"`` or ``None`` (all
    features) and is re-drawn at every node, which is what random forests
    need for decorrelated trees.  The draws come from
    ``np.random.default_rng(random_state)``; a ``Generator`` passed as
    ``random_state`` is advanced past the draws the tree uses.
    """

    def __init__(
        self,
        max_depth: int | None = None,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features: int | float | str | None = None,
        random_state: int | None = None,
    ):
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.random_state = random_state

    def fit(self, X, y) -> "DecisionTreeRegressor":
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float).ravel()
        if X.ndim == 1:
            X = X.reshape(-1, 1)
        check_consistent_length(X, y)
        if len(y) == 0:
            raise InvalidParameterError("Cannot fit a tree on empty data.")

        self.n_features_in_ = X.shape[1]
        n_draw = resolve_max_features(self.max_features, X.shape[1])
        self.tree_ = grow_trees(
            X,
            y,
            np.arange(len(y))[None, :],
            max_depth=self.max_depth,
            min_samples_split=self.min_samples_split,
            min_samples_leaf=self.min_samples_leaf,
            n_draw=n_draw,
            rngs=[np.random.default_rng(self.random_state)] if n_draw < X.shape[1] else None,
        )
        self.n_nodes_ = int(self.tree_.n_nodes[0])
        return self

    def predict(self, X) -> np.ndarray:
        check_is_fitted(self, ("tree_",))
        X = np.asarray(X, dtype=float)
        if X.ndim == 1:
            X = X.reshape(-1, 1)
        return self.tree_.predict(X)[0]

    @property
    def depth(self) -> int:
        """Depth of the fitted tree (0 for a single leaf)."""
        check_is_fitted(self, ("tree_",))
        return int(self.tree_.depths[0])
