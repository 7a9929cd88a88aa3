"""The paper's core contribution: the Past-Future scheduler and its parts."""
