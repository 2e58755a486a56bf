"""From-scratch machine-learning regressors used inside forecasting pipelines.

The paper's ML pipelines wrap Random Forest, Support Vector Regression,
XGBoost-style gradient boosting, Linear Regression and SGD Regression behind
look-back window transforms.  Because neither scikit-learn nor xgboost is
available in the reproduction environment, equivalent models are implemented
here on top of numpy.
"""

from .boosting import GradientBoostingRegressor
from .forest import RandomForestRegressor
from .knn import KNeighborsRegressor
from .linear import LinearRegression, RidgeRegression, StreamingRidge
from .mlp import MLPRegressor
from .model_selection import GridSearch, TimeSeriesSplit, temporal_train_test_split
from .sgd import SGDRegressor
from .svr import SVR
from .tree import DecisionTreeRegressor

__all__ = [
    "LinearRegression",
    "RidgeRegression",
    "StreamingRidge",
    "SGDRegressor",
    "DecisionTreeRegressor",
    "RandomForestRegressor",
    "GradientBoostingRegressor",
    "SVR",
    "KNeighborsRegressor",
    "MLPRegressor",
    "TimeSeriesSplit",
    "temporal_train_test_split",
    "GridSearch",
]
