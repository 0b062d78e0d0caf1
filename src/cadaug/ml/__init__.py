"""Desk-scale classifiers (KNN, decision tree, random forest) with CV selection."""

from .baseline import RandomBaseline
from .forest import RandomForestClassifier
from .knn import KNNClassifier
from .scaling import Standardizer, standardize_fit
from .selection import (
    CVPlan,
    DEFAULT_GRIDS,
    DegenerateDataError,
    MODEL_KINDS,
    TrainedModel,
    accuracy,
    train,
)
from .tree import DecisionTreeClassifier, N_CLASSES

__all__ = [
    "CVPlan",
    "DEFAULT_GRIDS",
    "DecisionTreeClassifier",
    "DegenerateDataError",
    "KNNClassifier",
    "MODEL_KINDS",
    "N_CLASSES",
    "RandomBaseline",
    "RandomForestClassifier",
    "Standardizer",
    "TrainedModel",
    "accuracy",
    "standardize_fit",
    "train",
]
