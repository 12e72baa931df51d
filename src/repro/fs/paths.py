"""Lexical path algebra.

These functions implement exactly what the paper's modified kernel
does when it maintains the current-working-directory name and the
open-file names: combine the string the process handed to the kernel
with the stored cwd, "resolving any references to the current or
parent directories" — *lexically*, without touching symbolic links
(which is why the user-level tools must later resolve links with
``readlink()``).

It also owns the cluster's one remote-name rule: every other machine's
root is ``/n/<host>`` (the 8th-edition convention the paper's site
followed), and a name already under ``/n`` is left alone, because NFS
does not export ``/n`` and refuses ``/n/a/n/b``.
"""

#: the directory holding every other machine's root
MOUNT_DIR = "n"


def is_absolute(path):
    return path.startswith("/")


def split_components(path):
    """Split a path into its non-empty components."""
    return [c for c in path.split("/") if c]


def normalize(path):
    """Collapse ``//``, ``.`` and ``..`` lexically.

    ``..`` at the root stays at the root, as in Unix.  The result is
    always an absolute path; ``path`` must be absolute.
    """
    if not is_absolute(path):
        raise ValueError("normalize() requires an absolute path: %r" % path)
    stack = []
    for component in split_components(path):
        if component == ".":
            continue
        if component == "..":
            if stack:
                stack.pop()
            continue
        stack.append(component)
    return "/" + "/".join(stack)


def joinpath(cwd, path):
    """Combine a cwd with a (possibly relative) path, lexically.

    This is the kernel's name-combining rule: an absolute argument
    replaces the stored name outright; a relative one is appended to
    the cwd and the result normalized.
    """
    if is_absolute(path):
        return normalize(path)
    if not is_absolute(cwd):
        raise ValueError("cwd must be absolute: %r" % cwd)
    return normalize(cwd + "/" + path)


def dirname(path):
    """Everything up to the final slash (``/`` for top-level names)."""
    path = normalize(path) if is_absolute(path) else path
    if "/" not in path:
        return "."
    head = path.rsplit("/", 1)[0]
    return head or "/"


def basename(path):
    """The final component of a path."""
    components = split_components(path)
    return components[-1] if components else "/"


def is_under(path, prefix):
    """True if ``path`` equals or lies beneath directory ``prefix``."""
    path = normalize(path)
    prefix = normalize(prefix)
    if prefix == "/":
        return True
    return path == prefix or path.startswith(prefix + "/")


def split_remote(path):
    """``(host, path on that host)`` for a name under ``/n/<host>``,
    or ``(None, path)`` for a local (or relative) name.

    Classifies the way ``namei`` walks a symlink-free name: the name is
    normalized lexically first, so ``/n/<host>`` alone is that host's
    ``/`` and ``/n`` alone names no host.
    """
    if not is_absolute(path):
        return None, path
    components = split_components(normalize(path))
    if len(components) < 2 or components[0] != MOUNT_DIR:
        return None, path
    return components[1], "/" + "/".join(components[2:])


def remote_name(host, path, local=None):
    """``host``'s ``path`` as named from ``local``: ``/n/<host><path>``.

    ``path`` comes back unchanged when ``local`` is ``host`` or when it
    already names a remote root (section 4.4's rewrite is idempotent).
    """
    if host == local or split_remote(path)[0] is not None:
        return path
    return "/%s/%s%s" % (MOUNT_DIR, host, path)
