"""From-scratch ML substrate replacing scikit-learn (offline build)."""

from repro.ml.kernels import gamma_scale, linear_kernel, rbf_kernel
from repro.ml.metrics import (
    accuracy_score,
    mean_absolute_error,
    r2_score,
    root_mean_squared_error,
)
from repro.ml.naive_bayes import GaussianNaiveBayes
from repro.ml.preprocessing import OneHotEncoder, StandardScaler
from repro.ml.svc import BinarySVC, OneVsRestSVC
from repro.ml.svr import KernelRidge, LinearSVR

__all__ = [
    "StandardScaler",
    "OneHotEncoder",
    "rbf_kernel",
    "linear_kernel",
    "gamma_scale",
    "BinarySVC",
    "OneVsRestSVC",
    "GaussianNaiveBayes",
    "KernelRidge",
    "LinearSVR",
    "accuracy_score",
    "mean_absolute_error",
    "root_mean_squared_error",
    "r2_score",
]
