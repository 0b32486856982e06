"""The four input modalities and their canonical ordering."""

from enum import IntEnum


class Modality(IntEnum):
    SMILES = 0
    TEXT = 1
    HTA = 2
    PROTEIN = 3

    @property
    def short(self) -> str:
        return self.name.lower()


MODALITY_ORDER = (Modality.SMILES, Modality.TEXT, Modality.HTA, Modality.PROTEIN)
