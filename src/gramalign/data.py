"""Embedding tables, quadruplet manifests, IC50 discretization, splits, synth data.

File formats owned here:

GEMB1 (binary, bit-exact): bytes 0-5 ASCII "GEMB1\\n"; byte 6 modality code
(0=SMILES, 1=TEXT, 2=HTA, 3=PROTEIN); bytes 7-10 row count and 11-14 column
count (unsigned 32-bit little-endian); rows*cols finite IEEE-754 32-bit
little-endian floats, row-major; then one id per row as u16-little-endian
length + UTF-8 bytes.

Quadruplet manifest (UTF-8 TSV): header
``smiles_id\\ttext_id\\thta_id\\tprotein_id\\tic50_um``; empty ic50_um when
the pair has no measurement; one quadruplet per line.
"""

import math
import struct
from dataclasses import InitVar, dataclass, field
from enum import Enum
from pathlib import Path

import numpy as np

from .checkpoint import f4_blocks, first_non_finite, read_file, write_atomically
from .errors import (
    DimensionMismatch,
    EmptyClass,
    FormatError,
    InsufficientEntities,
    NonFiniteValue,
    NonPositiveIc50,
    TruncatedFile,
    UnknownId,
    WrongModality,
)
from .modality import MODALITY_ORDER, Modality
from .seeding import substream

MAGIC = b"GEMB1\n"
HEADER_LEN = len(MAGIC) + 1 + 4 + 4  # magic + modality byte + rows + cols

NUM_IC50_CLASSES = 3
IC50_EFFECTIVE_MAX_UM = 10.0
IC50_MODERATE_MAX_UM = 1000.0

NEGATIVE_RATIO = 10


def _row_index(ids):
    """id -> position in ``ids``; a repeated id would make its row ambiguous."""
    index = {}
    for i, e in enumerate(ids):
        if index.setdefault(e, i) != i:
            raise FormatError(f"duplicate entity id {e!r} in rows {index[e]} and {i}")
    return index


@dataclass
class EmbeddingTable:
    """Dense per-modality embedding matrix keyed by entity id."""

    modality: Modality
    ids: list
    rows: np.ndarray  # (len(ids), dim) float32
    # True only from load_embedding_table, whose f4_blocks has checked every float
    checked_finite: InitVar[bool] = False

    def __post_init__(self, checked_finite):
        self.rows = np.asarray(self.rows, dtype=np.float32)
        if self.rows.ndim != 2 or self.rows.shape[0] != len(self.ids):
            raise DimensionMismatch(
                f"rows shape {self.rows.shape} does not match {len(self.ids)} ids"
            )
        if self.rows.shape[1] < 2:
            raise DimensionMismatch(f"embedding dim must be >= 2, got {self.rows.shape[1]}")
        self._index = _row_index(self.ids)
        if not checked_finite and first_non_finite(self.rows) >= 0:
            raise NonFiniteValue("table contains NaN/Inf entries")

    @property
    def dim(self) -> int:
        return int(self.rows.shape[1])

    def index_of(self, entity_id: str) -> int:
        return self._index[entity_id]


@dataclass
class Quadruplet:
    """Row indices into the four tables plus optional IC50 annotation.

    ``ic50_class`` is ``discretize_ic50(ic50_um)``, or None without a value.
    """

    smiles_row: int
    text_row: int
    hta_row: int
    protein_row: int
    ic50_um: float | None = None
    ic50_class: int | None = field(init=False)

    def __post_init__(self):
        self.ic50_class = None if self.ic50_um is None else discretize_ic50(self.ic50_um)

    def row_for(self, modality: Modality) -> int:
        return (self.smiles_row, self.text_row, self.hta_row, self.protein_row)[modality]


class SplitKind(Enum):
    WARM = "warm"
    DRUG_COLD = "drug-cold"
    TARGET_COLD = "target-cold"


@dataclass
class ClassWeights:
    counts: tuple
    total: int
    weights: np.ndarray


@dataclass
class PairDataset:
    """Labeled (drug, protein) pairs at a fixed 10:1 negative:positive ratio.

    ``pairs`` is one (n, 3) uint32 array: drug row, protein row, label in
    {0, 1}. The rows index the universes ``make_split`` was given, and
    ``drug_ids`` and ``protein_ids`` return the distinct rows of each side.
    """

    pairs: np.ndarray

    def drug_ids(self):
        return set(self.pairs[:, 0].tolist())

    def protein_ids(self):
        return set(self.pairs[:, 1].tolist())


@dataclass
class SplitFold:
    index: int
    train: PairDataset
    test: PairDataset


# ---------------------------------------------------------------------------
# GEMB1 I/O
# ---------------------------------------------------------------------------


def write_embedding_table(table: EmbeddingTable, path) -> None:
    header = MAGIC + struct.pack("<BII", int(table.modality), *table.rows.shape)
    ids = bytearray()
    for entity_id in table.ids:
        raw = entity_id.encode("utf-8")
        if len(raw) > 0xFFFF:
            raise FormatError(f"id too long to length-prefix: {len(raw)} bytes")
        ids += struct.pack("<H", len(raw)) + raw
    write_atomically(path, [header, np.ascontiguousarray(table.rows, dtype="<f4"), ids])


def load_embedding_table(path, modality: Modality | None = None) -> EmbeddingTable:
    blob = read_file(path, MAGIC)
    if len(blob) < HEADER_LEN:
        raise TruncatedFile(f"header needs {HEADER_LEN} bytes, file has {len(blob)}")
    code = blob[len(MAGIC)]
    try:
        file_modality = Modality(code)
    except ValueError:
        raise FormatError(f"unknown modality code {code} at byte {len(MAGIC)}")
    if modality is not None and file_modality != modality:
        raise WrongModality(f"expected {modality.name}, file declares {file_modality.name}")
    n_rows, n_cols = struct.unpack_from("<II", blob, len(MAGIC) + 1)
    (rows,) = f4_blocks(blob, HEADER_LEN, [(f"{n_rows}x{n_cols} table", n_rows, n_cols)])
    off = HEADER_LEN + rows.nbytes
    ids = []
    for r in range(n_rows):
        if len(blob) < off + 2:
            raise TruncatedFile(f"id length prefix for row {r} missing at offset {off}")
        (id_len,) = struct.unpack_from("<H", blob, off)
        off += 2
        if len(blob) < off + id_len:
            raise TruncatedFile(f"id bytes for row {r} truncated at offset {off}")
        try:
            ids.append(blob[off : off + id_len].decode("utf-8"))
        except UnicodeDecodeError as e:
            raise FormatError(f"row {r} id is not UTF-8 at byte offset {off + e.start}") from None
        off += id_len
    if off != len(blob):
        raise FormatError(f"{len(blob) - off} unexpected trailing bytes at offset {off}")
    return EmbeddingTable(modality=file_modality, ids=ids, rows=rows, checked_finite=True)


# ---------------------------------------------------------------------------
# manifest I/O
# ---------------------------------------------------------------------------

MANIFEST_HEADER = "smiles_id\ttext_id\thta_id\tprotein_id\tic50_um"


def write_manifest(quads, tables: dict, path) -> None:
    lines = [MANIFEST_HEADER]
    for q in quads:
        cells = [tables[m].ids[q.row_for(m)] for m in MODALITY_ORDER]
        cells.append("" if q.ic50_um is None else repr(float(q.ic50_um)))
        lines.append("\t".join(cells))
    write_atomically(path, [("\n".join(lines) + "\n").encode("utf-8")])


def load_manifest(path, tables: dict):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as e:
        raise FormatError(f"manifest is not UTF-8 at byte offset {e.start}") from None
    lines = [(ln_no, ln) for ln_no, ln in enumerate(text.split("\n"), start=1) if ln != ""]
    if not lines or lines[0][1] != MANIFEST_HEADER:
        raise FormatError(f"manifest header mismatch: {lines[0][1] if lines else '(empty)'!r}")
    quads = []
    for ln_no, ln in lines[1:]:
        cells = ln.split("\t")
        if len(cells) != 5:
            raise FormatError(f"line {ln_no}: expected 5 tab-separated cells, got {len(cells)}")
        rows = []
        for m, cell in zip(MODALITY_ORDER, cells[:4]):
            try:
                rows.append(tables[m].index_of(cell))
            except KeyError:
                raise UnknownId(f"line {ln_no}: id {cell!r} not in {m.name} table")
        try:
            ic50 = None if cells[4] == "" else float(cells[4])
        except ValueError:
            raise FormatError(f"line {ln_no}: ic50_um {cells[4]!r} is not a number")
        try:
            quads.append(Quadruplet(*rows, ic50_um=ic50))
        except NonPositiveIc50 as e:
            raise NonPositiveIc50(f"line {ln_no}: {e}") from None
    return quads


# ---------------------------------------------------------------------------
# IC50 discretization and class weights
# ---------------------------------------------------------------------------


def discretize_ic50(value_um: float) -> int:
    """Map a micromolar IC50 to class 0 (effective), 1 (moderate), 2 (ineffective).

    Boundaries 10 and 1000 belong to the inclusive moderate band.
    """
    v = float(value_um)
    if not math.isfinite(v) or v <= 0.0:
        raise NonPositiveIc50(f"IC50 must be positive and finite, got {value_um}")
    if v < IC50_EFFECTIVE_MAX_UM:
        return 0
    if v <= IC50_MODERATE_MAX_UM:
        return 1
    return 2


def class_weights(labels) -> ClassWeights:
    """Inverse-frequency weights w_c = N_total / (C * N_c) over the C = NUM_IC50_CLASSES classes."""
    labels = np.fromiter(labels, dtype=np.int64)
    outside = labels[(labels < 0) | (labels >= NUM_IC50_CLASSES)]
    if outside.size:
        raise EmptyClass(f"label {outside[0]} outside 0..{NUM_IC50_CLASSES - 1}")
    counts = np.bincount(labels, minlength=NUM_IC50_CLASSES)
    if not counts.all():
        raise EmptyClass(f"class {np.argmin(counts)} has no samples")
    total = int(counts.sum())
    return ClassWeights(counts=tuple(counts.tolist()), total=total,
                        weights=total / (NUM_IC50_CLASSES * counts))


# ---------------------------------------------------------------------------
# downstream splits
# ---------------------------------------------------------------------------


def _positions(grid, rows):
    """Position of each of ``rows`` in the distinct ``grid``, -1 where it is absent."""
    by_row = np.argsort(grid)
    at = by_row[np.minimum(np.searchsorted(grid, rows, sorter=by_row), len(grid) - 1)]
    return np.where(grid[at] == rows, at, -1)


def _draw_negatives(rows, cols, pos, count, rng):
    """(count, 2) pairs drawn without replacement from ``rows`` x ``cols`` minus ``pos``.

    ``rows`` and ``cols`` are in id order, so their row-major product is the
    lexicographic pair grid of the ids. The pool (grid minus positives) stays
    implicit: pool index i is grid index i plus the number of positives at or
    before it, found by one ``searchsorted`` over the positives' grid indices.
    """
    n_cols = len(cols)
    i, j = _positions(rows, pos[:, 0]), _positions(cols, pos[:, 1])
    inside = (i >= 0) & (j >= 0)
    taken = np.sort(i[inside] * n_cols + j[inside])
    n_pool = len(rows) * n_cols - len(taken)
    if n_pool < count:
        raise InsufficientEntities(
            f"need {count} negative pairs but only {n_pool} non-positive pairs exist"
        )
    idx = np.sort(rng.choice(n_pool, size=count, replace=False))
    grid = idx + np.searchsorted(taken - np.arange(len(taken)), idx, side="right")
    return np.stack([rows[grid // n_cols], cols[grid % n_cols]], axis=1)


def make_split(positives, kind: SplitKind, folds: int, seed: int, drugs=None, proteins=None):
    """Cross-validation folds with 10:1 negative sampling.

    Positives are (drug_id, protein_id) pairs. Each positive lands in exactly
    one test fold; negatives are drawn uniformly without replacement from the
    non-positive pair grid, independently per fold with a fold-derived
    sub-seed. Cold splits partition entities so train and test never share a
    drug (DRUG_COLD) or protein (TARGET_COLD). The grid spans ``drugs`` x
    ``proteins`` when given (a dataset may carry entities with no known
    interaction); otherwise the sorted distinct entities of the positives.

    Ids are mapped to rows once, on entry: a pair's drug row is the position
    of its id in ``drugs`` as given, and likewise for proteins, so with a
    table's ids as the universe the rows are that table's rows. Every draw
    and layout follows id order, whatever order the universes are given in.
    """
    positives = list(positives)
    drugs = sorted({d for d, _ in positives}) if drugs is None else drugs
    proteins = sorted({p for _, p in positives}) if proteins is None else proteins
    d_row, p_row = _row_index(drugs), _row_index(proteins)
    try:
        pos = np.array([(d_row[d], p_row[p]) for d, p in positives], dtype=np.int64).reshape(-1, 2)
    except KeyError:
        raise InsufficientEntities("positives reference entities outside the given universe")
    _, first = np.unique(pos[:, 0] * len(p_row) + pos[:, 1], return_index=True)
    pos = pos[np.sort(first)]  # distinct pairs, first appearance wins
    if len(d_row) < 2 or len(p_row) < 2:
        raise InsufficientEntities("need at least 2 distinct drugs and proteins")
    if folds < 2:
        raise InsufficientEntities(f"folds must be >= 2, got {folds}")

    by_id = [np.array([ix[e] for e in sorted(ix)]) for ix in (d_row, p_row)]  # rows in id order
    layout_rng = substream(seed, "split-layout", kind.value)
    out = []

    if kind is SplitKind.WARM:
        chunks = np.array_split(pos[layout_rng.permutation(len(pos))], folds)
        for f in range(folds):
            test_pos = chunks[f]
            train_pos = np.concatenate(chunks[:f] + chunks[f + 1 :])
            if not len(test_pos):
                raise InsufficientEntities(f"fold {f} has no test positives")
            neg_rng = substream(seed, "negatives", kind.value, f)
            negs = _draw_negatives(*by_id, pos, NEGATIVE_RATIO * len(pos), neg_rng)
            n_train = NEGATIVE_RATIO * len(train_pos)
            out.append(SplitFold(f, _dataset(train_pos, negs[:n_train]),
                                 _dataset(test_pos, negs[n_train:])))
        return out

    # cold splits: partition the held-out entity kind; only entities with at
    # least one positive can be held out, or a test fold would be empty
    side = 0 if kind is SplitKind.DRUG_COLD else 1
    known = by_id[side][np.isin(by_id[side], pos[:, side])]
    if len(known) < folds:
        raise InsufficientEntities(
            f"{kind.value} split needs >= {folds} distinct entities, got {len(known)}"
        )
    groups = np.array_split(known[layout_rng.permutation(len(known))], folds)
    for f in range(folds):
        in_test = np.isin(pos[:, side], groups[f])
        test_pos, train_pos = pos[in_test], pos[~in_test]
        if not len(test_pos):
            raise InsufficientEntities(f"fold {f} has no test positives")
        neg_rng = substream(seed, "negatives", kind.value, f)
        held = np.isin(by_id[side], groups[f])
        test_grid, train_grid = list(by_id), list(by_id)
        test_grid[side], train_grid[side] = by_id[side][held], by_id[side][~held]
        test_negs = _draw_negatives(*test_grid, pos, NEGATIVE_RATIO * len(test_pos), neg_rng)
        train_negs = _draw_negatives(*train_grid, pos, NEGATIVE_RATIO * len(train_pos), neg_rng)
        out.append(SplitFold(f, _dataset(train_pos, train_negs), _dataset(test_pos, test_negs)))
    return out


def _dataset(pos, negs):
    """The positives labeled 1, then the negatives labeled 0, in one (n, 3) uint32 array."""
    pairs = np.zeros((len(pos) + len(negs), 3), dtype=np.uint32)
    pairs[: len(pos), :2], pairs[len(pos) :, :2] = pos, negs
    pairs[: len(pos), 2] = 1
    return PairDataset(pairs)


# ---------------------------------------------------------------------------
# synthetic quadruplets
# ---------------------------------------------------------------------------

IC50_LABEL_FRACTION = 3  # every third quadruplet carries an annotation
_CLASS_VALUES_UM = (1.0, 100.0, 5000.0)  # representative value inside each band


def synth_quadruplets(n: int, dims, noise_sigma: float, seed: int):
    """Aligned four-modality tables derived from one shared latent per sample.

    Sample i draws a unit latent z_i; each modality embeds it through a fixed
    random orthonormal-column map plus Gaussian noise of scale noise_sigma.
    With zero noise the pairwise cosines equal the latent cosines in every
    modality, so similarity rankings agree exactly across modalities. Every
    third quadruplet carries an IC50 value whose class is the tercile of the
    first latent coordinate, which keeps the weak-supervision path learnable.
    """
    dims = tuple(int(d) for d in dims)
    if len(dims) != 4:
        raise DimensionMismatch(f"need 4 modality dims, got {len(dims)}")
    if n < 4:
        raise InsufficientEntities(f"need n >= 4 quadruplets, got {n}")
    if not 0 <= noise_sigma < math.inf:
        raise ValueError(f"noise_sigma must be finite and >= 0, got {noise_sigma}")

    latent_dim = min(8, min(dims))
    rng = substream(seed, "synth")
    maps = []
    for d in dims:
        a = rng.standard_normal((d, latent_dim))
        q, _ = np.linalg.qr(a)
        maps.append(q)  # (d, latent) with orthonormal columns
    z = rng.standard_normal((n, latent_dim))
    z /= np.linalg.norm(z, axis=1, keepdims=True)

    tables = {}
    for m, d, q in zip(MODALITY_ORDER, dims, maps):
        x = z @ q.T
        if noise_sigma > 0:
            x = x + noise_sigma * rng.standard_normal((n, d))
        ids = [f"{m.short}-{i:06d}" for i in range(n)]
        tables[m] = EmbeddingTable(modality=m, ids=ids, rows=x.astype(np.float32))

    # tercile class over the first latent coordinate
    ranks = np.argsort(np.argsort(z[:, 0], kind="stable"), kind="stable")
    classes = np.minimum((NUM_IC50_CLASSES * ranks) // n, NUM_IC50_CLASSES - 1)

    quads = []
    for i in range(n):
        ic50 = _CLASS_VALUES_UM[classes[i]] if i % IC50_LABEL_FRACTION == 0 else None
        quads.append(Quadruplet(i, i, i, i, ic50_um=ic50))
    return tables, quads
