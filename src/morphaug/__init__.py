"""Stem-corruption data augmentation, uncertainty-based subset selection, and
an empirical information-theory lab for morphological inflection."""

__version__ = "0.1.0"
