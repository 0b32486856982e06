"""Embedding tables, quadruplet manifests, IC50 discretization, splits, synth data.

File formats owned here:

GEMB1 (binary, bit-exact): bytes 0-5 ASCII "GEMB1\\n"; byte 6 modality code
(0=SMILES, 1=TEXT, 2=HTA, 3=PROTEIN); bytes 7-10 row count and 11-14 column
count (unsigned 32-bit little-endian); rows*cols IEEE-754 32-bit
little-endian floats, row-major; then one id per row as u16-little-endian
length + UTF-8 bytes.

Quadruplet manifest (UTF-8 TSV): header
``smiles_id\\ttext_id\\thta_id\\tprotein_id\\tic50_um``; empty ic50_um when
the pair has no measurement; one quadruplet per line.
"""

import math
import struct
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

import numpy as np

from .checkpoint import write_atomically
from .errors import (
    BadMagic,
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


@dataclass
class EmbeddingTable:
    """Dense per-modality embedding matrix keyed by entity id."""

    modality: Modality
    ids: list
    rows: np.ndarray  # (len(ids), dim) float32

    def __post_init__(self):
        self.rows = np.asarray(self.rows, dtype=np.float32)
        if self.rows.ndim != 2 or self.rows.shape[0] != len(self.ids):
            raise DimensionMismatch(
                f"rows shape {self.rows.shape} does not match {len(self.ids)} ids"
            )
        if self.rows.shape[1] < 2:
            raise DimensionMismatch(f"embedding dim must be >= 2, got {self.rows.shape[1]}")
        self._index = {e: i for i, e in enumerate(self.ids)}
        if len(self._index) != len(self.ids):
            raise FormatError("duplicate entity ids in table")
        if not np.all(np.isfinite(self.rows)):
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
    """Labeled (drug, protein) pairs at a fixed 10:1 negative:positive ratio."""

    pairs: list  # (drug_id, protein_id, label in {0, 1})

    def drug_ids(self):
        return {d for d, _, _ in self.pairs}

    def protein_ids(self):
        return {p for _, p, _ in self.pairs}

    def positives(self):
        return [(d, p) for d, p, y in self.pairs if y == 1]


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
    blob = Path(path).read_bytes()
    if len(blob) < len(MAGIC) or blob[: len(MAGIC)] != MAGIC:
        raise BadMagic(f"bad magic at byte 0: {blob[:6]!r}")
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
    off = HEADER_LEN
    payload = n_rows * n_cols * 4
    if len(blob) < off + payload:
        raise TruncatedFile(
            f"declared {n_rows}x{n_cols} floats need {payload} bytes at offset {off}, "
            f"only {len(blob) - off} present"
        )
    rows = np.frombuffer(blob, dtype="<f4", count=n_rows * n_cols, offset=off)
    finite = np.isfinite(rows)
    if not finite.all():
        k = int(np.argmin(finite))
        raise NonFiniteValue(
            f"non-finite float at byte offset {off + 4 * k} (row {k // n_cols}, col {k % n_cols})"
        )
    rows = rows.reshape(n_rows, n_cols).copy()
    off += payload
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
    return EmbeddingTable(modality=file_modality, ids=ids, rows=rows)


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
    lines = [ln for ln in text.split("\n") if ln != ""]
    if not lines or lines[0] != MANIFEST_HEADER:
        raise FormatError(f"manifest header mismatch: {lines[0] if lines else '(empty)'!r}")
    quads = []
    for ln_no, ln in enumerate(lines[1:], start=2):
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


def _chunks(items, folds):
    """Partition into `folds` contiguous chunks, sizes differing by at most 1."""
    n = len(items)
    base, extra = divmod(n, folds)
    out, start = [], 0
    for f in range(folds):
        size = base + (1 if f < extra else 0)
        out.append(items[start : start + size])
        start += size
    return out


def _draw_negatives(rows, cols, pos_set, count, rng):
    """``count`` pairs drawn without replacement from ``rows`` x ``cols`` minus ``pos_set``.

    ``rows`` and ``cols`` are sorted id lists, so their row-major product is
    the lexicographic pair grid. The pool (grid minus positives) stays
    implicit: pool index i is grid index i plus the number of positives at
    or before it, found by one ``searchsorted`` over the positives' grid
    indices.
    """
    r_index = {r: i for i, r in enumerate(rows)}
    c_index = {c: j for j, c in enumerate(cols)}
    n_cols = len(cols)
    taken = np.array(
        sorted(
            r_index[d] * n_cols + c_index[p] for d, p in pos_set if d in r_index and p in c_index
        ),
        dtype=np.int64,
    )
    n_pool = len(rows) * n_cols - len(taken)
    if n_pool < count:
        raise InsufficientEntities(
            f"need {count} negative pairs but only {n_pool} non-positive pairs exist"
        )
    idx = np.sort(rng.choice(n_pool, size=count, replace=False))
    grid = idx + np.searchsorted(taken - np.arange(len(taken)), idx, side="right")
    return [(rows[g // n_cols], cols[g % n_cols]) for g in grid.tolist()]


def make_split(positives, kind: SplitKind, folds: int, seed: int, drugs=None, proteins=None):
    """Cross-validation folds with 10:1 negative sampling.

    Positives are (drug_id, protein_id) pairs. Each positive lands in exactly
    one test fold; negatives are drawn uniformly without replacement from the
    non-positive pair grid, independently per fold with a fold-derived
    sub-seed. Cold splits partition entities so train and test never share a
    drug (DRUG_COLD) or protein (TARGET_COLD). The grid spans ``drugs`` x
    ``proteins`` when given (a dataset may carry entities with no known
    interaction); otherwise the entities appearing in positives.
    """
    positives = list(dict.fromkeys(tuple(p) for p in positives))
    known_d = {d for d, _ in positives}
    known_p = {p for _, p in positives}
    drugs = known_d if drugs is None else set(drugs)
    proteins = known_p if proteins is None else set(proteins)
    if not known_d <= drugs or not known_p <= proteins:
        raise InsufficientEntities("positives reference entities outside the given universe")
    drugs, proteins = sorted(drugs), sorted(proteins)
    if len(drugs) < 2 or len(proteins) < 2:
        raise InsufficientEntities("need at least 2 distinct drugs and proteins")
    if folds < 2:
        raise InsufficientEntities(f"folds must be >= 2, got {folds}")

    layout_rng = substream(seed, "split-layout", kind.value)
    pos_set = set(positives)
    out = []

    if kind is SplitKind.WARM:
        order = [positives[i] for i in layout_rng.permutation(len(positives))]
        test_chunks = _chunks(order, folds)
        for f in range(folds):
            test_pos = test_chunks[f]
            train_pos = [p for c in range(folds) if c != f for p in test_chunks[c]]
            if not test_pos:
                raise InsufficientEntities(f"fold {f} has no test positives")
            neg_rng = substream(seed, "negatives", kind.value, f)
            negs = _draw_negatives(
                drugs, proteins, pos_set, NEGATIVE_RATIO * (len(train_pos) + len(test_pos)), neg_rng
            )
            train_negs = negs[: NEGATIVE_RATIO * len(train_pos)]
            test_negs = negs[NEGATIVE_RATIO * len(train_pos) :]
            out.append(_fold(f, train_pos, train_negs, test_pos, test_negs))
        return out

    # cold splits: partition the held-out entity kind; only entities with at
    # least one positive can be held out, or a test fold would be empty
    entities = sorted(known_d) if kind is SplitKind.DRUG_COLD else sorted(known_p)
    if len(entities) < folds:
        raise InsufficientEntities(
            f"{kind.value} split needs >= {folds} distinct entities, got {len(entities)}"
        )
    order = [entities[i] for i in layout_rng.permutation(len(entities))]
    groups = _chunks(order, folds)
    side = 0 if kind is SplitKind.DRUG_COLD else 1
    for f in range(folds):
        test_entities = set(groups[f])
        test_pos = [p for p in positives if p[side] in test_entities]
        train_pos = [p for p in positives if p[side] not in test_entities]
        if not test_pos:
            raise InsufficientEntities(f"fold {f} has no test positives")
        neg_rng = substream(seed, "negatives", kind.value, f)
        held = sorted(test_entities)
        if kind is SplitKind.DRUG_COLD:
            kept = [d for d in drugs if d not in test_entities]
            test_grid, train_grid = (held, proteins), (kept, proteins)
        else:
            kept = [p for p in proteins if p not in test_entities]
            test_grid, train_grid = (drugs, held), (drugs, kept)
        test_negs = _draw_negatives(*test_grid, pos_set, NEGATIVE_RATIO * len(test_pos), neg_rng)
        train_negs = _draw_negatives(*train_grid, pos_set, NEGATIVE_RATIO * len(train_pos), neg_rng)
        out.append(_fold(f, train_pos, train_negs, test_pos, test_negs))
    return out


def _fold(f, train_pos, train_negs, test_pos, test_negs):
    train = [(d, p, 1) for d, p in train_pos] + [(d, p, 0) for d, p in train_negs]
    test = [(d, p, 1) for d, p in test_pos] + [(d, p, 0) for d, p in test_negs]
    return SplitFold(index=f, train=PairDataset(pairs=train), test=PairDataset(pairs=test))


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
