"""From-scratch ML substrate replacing scikit-learn (offline build)."""

from repro.ml.kernels import gamma_scale, linear_kernel, rbf_kernel
from repro.ml.metrics import accuracy_score
from repro.ml.naive_bayes import GaussianNaiveBayes
from repro.ml.preprocessing import OneHotEncoder, StandardScaler
from repro.ml.svc import BinarySVC, OneVsRestSVC
from repro.ml.svr import KernelRidge

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
    "accuracy_score",
]
