"""Battery home-energy controllers: DQN teachers distilled into crisp decision trees."""

__version__ = "0.1.0"
