"""From-scratch machine-learning regressors used inside forecasting pipelines.

The paper's ML pipelines wrap Random Forest, Support Vector Regression,
XGBoost-style gradient boosting and Linear Regression behind look-back
window transforms.  Because neither scikit-learn nor xgboost is available in
the reproduction environment, equivalent models are implemented here on top
of numpy.
"""

from .boosting import GradientBoostingRegressor
from .forest import RandomForestRegressor
from .linear import LinearRegression, RidgeRegression, StreamingRidge
from .svr import SVR
from .tree import DecisionTreeRegressor

__all__ = [
    "LinearRegression",
    "RidgeRegression",
    "StreamingRidge",
    "DecisionTreeRegressor",
    "RandomForestRegressor",
    "GradientBoostingRegressor",
    "SVR",
]
