type t = {
  tile : bool;
  peel : bool;
  skew : bool;
  hoist : bool;
  cse : bool;
  fp_divmod : bool;
  interchange : bool;
  inspector : bool;
}

let all_on =
  {
    tile = true;
    peel = true;
    skew = true;
    hoist = true;
    cse = true;
    fp_divmod = true;
    interchange = true;
    inspector = true;
  }

let all_off =
  {
    tile = false;
    peel = false;
    skew = false;
    hoist = false;
    cse = false;
    fp_divmod = false;
    interchange = false;
    inspector = false;
  }

let tile_peel = { all_off with tile = true; peel = true; skew = true }
let tile_peel_hoist = { tile_peel with hoist = true; cse = true; interchange = true }
