"""2D indoor exploration simulator with prediction-driven frontier planning."""
