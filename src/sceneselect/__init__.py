"""Scene-adaptive selection of compressed classifiers with cached deployment."""

__version__ = "0.1.0"
